"""Tests for the privacy-vs-placement frontier sweep and its CLI."""

from __future__ import annotations

import json

import pytest

from repro.analysis.placement import (
    SWEEP_SCHEMES,
    SWEEP_STRATEGIES,
    SWEEP_TOPOLOGIES,
    PlacementFrontier,
    PlacementPoint,
    run_placement_point,
    run_placement_sweep,
)
from repro.cli import main
from repro.ndn.strategy import STRATEGIES
from repro.ndn.topology import SCALE_GRAPHS, TOPOLOGIES


class TestRegistries:
    def test_sweep_topologies_cover_lan_and_scale_graphs(self):
        assert set(SWEEP_TOPOLOGIES) == {"fig3a_lan"} | set(SCALE_GRAPHS)
        assert all(SWEEP_TOPOLOGIES[n] is TOPOLOGIES[n] for n in SWEEP_TOPOLOGIES)

    def test_sweep_strategies_cover_registry(self):
        assert set(SWEEP_STRATEGIES) == set(STRATEGIES)

    def test_sweep_schemes(self):
        assert set(SWEEP_SCHEMES) == {"no-privacy", "uniform", "exponential"}


class TestPoint:
    def test_lce_baseline_attack_succeeds(self):
        point = run_placement_point(
            "fig3a_lan", "no-privacy", "lce", trials=1, targets_per_trial=10
        )
        assert point.probe_accuracy == 1.0
        assert point.cache_declined == 0
        assert point.verdicts == 10
        assert 0.0 < point.probe_hit_rate <= 1.0

    def test_lcd_on_fat_tree_suppresses_probe(self):
        point = run_placement_point(
            "fat_tree", "no-privacy", "lcd", trials=1, targets_per_trial=10
        )
        # LCD keeps the first copies away from the edge probe router, so
        # the adversary cannot beat coin-flipping by much.
        assert point.probe_accuracy <= 0.7
        assert point.cache_declined > 0

    def test_uniform_scheme_engages_under_lce(self):
        # Producer-driven marking keeps the hot set private, so the
        # scheme disguises probes: accuracy falls to coin-flip and the
        # probe router pays the utility cost (u < 1) that LCD avoids.
        point = run_placement_point(
            "fig3a_lan", "uniform", "lce", trials=1, targets_per_trial=10
        )
        assert point.probe_accuracy <= 0.7
        assert point.utility < 1.0

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            run_placement_point("fig3a_lan", "no-privacy", "mru")

    def test_rejects_tiny_target_count(self):
        with pytest.raises(ValueError, match="targets_per_trial"):
            run_placement_point(
                "fig3a_lan", "no-privacy", "lce", targets_per_trial=1
            )

    def test_deterministic_given_seed(self):
        def run():
            return run_placement_point(
                "fig3a_lan", "uniform", "bernoulli",
                trials=1, targets_per_trial=8, base_seed=77,
            )

        assert run() == run()


class TestSweep:
    def test_sweep_and_frontier_shape(self):
        frontier = run_placement_sweep(
            topologies=["fig3a_lan"],
            schemes=["no-privacy"],
            strategies=["lce", "lcd"],
            trials=1,
            targets_per_trial=8,
        )
        assert len(frontier.points) == 2
        assert all(isinstance(p, PlacementPoint) for p in frontier.points)
        payload = frontier.to_dict()
        assert payload["experiment"] == "strategy_placement_frontier"
        assert len(payload["points"]) == 2
        rendered = frontier.render()
        assert "fig3a_lan" in rendered and "lcd" in rendered

    def test_best_privacy_picks_closest_to_coin_flip(self):
        frontier = PlacementFrontier(points=[
            PlacementPoint("t", "s", "lce", 1.0, 0.5, 0.5, 1.0, 0, 8),
            PlacementPoint("t", "s", "lcd", 0.55, 0.2, 0.3, 1.0, 4, 8),
        ])
        assert frontier.best_privacy().strategy == "lcd"

    def test_rejects_unknown_topology(self):
        with pytest.raises(ValueError, match="unknown topologies"):
            run_placement_sweep(topologies=["moebius"])


class TestStrategyCommand:
    def test_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "frontier.json"
        assert main([
            "strategy", "--topologies", "fig3a_lan",
            "--strategies", "lce", "--schemes", "no-privacy",
            "--trials", "1", "--targets", "8", "--out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "best privacy point" in printed
        assert "engine: 1/1 points on the batch kernel" in printed
        artifact = json.loads(out.read_text())
        assert artifact["experiment"] == "strategy_placement_frontier"
        assert len(artifact["points"]) == 1
        assert artifact["points"][0]["engine"] == "batch"

    def test_engine_summary_names_each_fallback_and_its_reason(self):
        from repro.cli import _engine_summary

        assert _engine_summary(
            "panels", {"a": "batch", "b": "reference: lossy link"}
        ) == (
            "engine: 1/2 panels on the batch kernel; "
            "fell back: b (reference: lossy link)"
        )
