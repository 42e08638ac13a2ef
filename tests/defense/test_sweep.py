"""Tests for the detection-frontier sweep (repro.analysis.defense)."""

from __future__ import annotations

import json

import pytest

from repro.analysis.defense import (
    DefenseFrontier,
    DefensePoint,
    SWEEP_ATTACKS,
    run_defense_sweep,
)
from repro.defense import run_closed_loop

#: Short spec so a sweep cell runs in a fraction of the default demo.
FAST = dict(horizon=8000.0, attack_start=1500.0, attack_end=6000.0)


@pytest.fixture(scope="module")
def small_frontier():
    return run_defense_sweep(
        defenses=("off", "adaptive"), attacks=("pollution",), seed=0, **FAST
    )


class TestPoint:
    def test_point_fields_are_consistent(self):
        point = DefensePoint.from_report(
            run_closed_loop("adaptive", "pollution", seed=0, **FAST)
        )
        assert point.defense == "adaptive"
        assert point.attack == "pollution"
        assert point.utility_metric == "edge_hit_rate"
        assert 0.0 <= point.attack_success <= 1.0
        assert point.attack_success == pytest.approx(
            min(1.0, max(0.0, 1.0 - point.recovery_ratio))
        )
        assert point.detection_latency is not None
        assert point.attacker_requests_before_alarm is not None
        assert point.false_alarms == 0
        assert point.false_mitigations == 0
        assert point.invariant_violations == 0

    def test_flood_point_uses_delivery_rate(self):
        point = DefensePoint.from_report(
            run_closed_loop("off", "flood", seed=0, **FAST)
        )
        assert point.utility_metric == "delivery_rate"
        assert point.detection_latency is None  # nothing watching
        assert point.alarms == 0


class TestSweep:
    def test_grid_order_and_size(self, small_frontier):
        assert [(p.defense, p.attack) for p in small_frontier.points] == [
            ("off", "pollution"),
            ("adaptive", "pollution"),
        ]

    def test_best_defense_prefers_the_closed_loop(self, small_frontier):
        assert small_frontier.best_defense("pollution").defense == "adaptive"

    def test_best_defense_unknown_attack_raises(self, small_frontier):
        with pytest.raises(ValueError, match="no frontier points"):
            small_frontier.best_defense("teleportation")

    def test_unknown_preset_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown defenses"):
            run_defense_sweep(defenses=("off", "rubber"), attacks=("pollution",))

    def test_baseline_runs_once_per_defense_and_changes_no_point(self, monkeypatch):
        from repro.defense import scenario as scenario_module

        specs = []
        real = scenario_module.run_defense_scenario

        def recording(spec):
            specs.append((spec.defense, spec.attack))
            return real(spec)

        monkeypatch.setattr(scenario_module, "run_defense_scenario", recording)
        tiny = dict(horizon=2000.0, attack_start=400.0, attack_end=1400.0)
        frontier = run_defense_sweep(
            defenses=("off", "adaptive"), attacks=("pollution", "flood"),
            seed=2, **tiny,
        )
        # 2 shared baselines + 4 attacked runs, where 4 + 4 used to run.
        assert sorted(specs) == sorted(
            [("off", "none"), ("adaptive", "none")]
            + [(d, a) for d in ("off", "adaptive") for a in ("pollution", "flood")]
        )
        assert frontier.points == [
            DefensePoint.from_report(run_closed_loop(d, a, seed=2, **tiny))
            for a in ("pollution", "flood")
            for d in ("off", "adaptive")
        ]

    def test_default_attack_axis(self):
        assert SWEEP_ATTACKS == ("pollution", "flood", "adaptive")

    def test_to_dict_is_the_json_artifact(self, small_frontier):
        artifact = small_frontier.to_dict()
        assert artifact["experiment"] == "defense_detection_frontier"
        assert artifact["seed"] == 0
        assert len(artifact["points"]) == 2
        assert artifact["points"][0]["defense"] == "off"
        json.dumps(artifact)  # must be serializable as-is

    def test_render_tabulates_every_point(self, small_frontier):
        table = small_frontier.render()
        assert "defense" in table.splitlines()[0]
        assert len(table.splitlines()) == 2 + len(small_frontier.points)
        assert "adaptive" in table


class TestFromReport:
    def test_false_alarm_columns_come_from_the_baseline(self):
        report = run_closed_loop("monitor", "pollution", seed=0, **FAST)
        point = DefensePoint.from_report(report)
        assert point.false_alarms == report.baseline.alarms
        assert point.false_mitigations == report.baseline.mitigations
        assert point.mitigations == 0  # monitor never mitigates
        assert point.alarms == report.attacked.alarms >= 1

    def test_frontier_accumulates_points(self):
        frontier = DefenseFrontier(seed=5)
        assert frontier.points == []
        assert frontier.to_dict()["points"] == []
