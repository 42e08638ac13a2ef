"""The replay differential: every trace representation, through the
sweep's dispatch, against the reference replay of the source stream."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.schemes.registry import SchemeSpec
from repro.perf.parallel import ReplaySpec, build_scheme
from repro.validation import (
    DifferentialReport,
    default_replay_cases,
    diff_replay_stats,
    validate_replay_differential,
)
from repro.validation import differential
from repro.validation.differential import CaseResult, _case_label
from repro.workload import sharded
from repro.workload.compiled import CompiledTrace
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator
from repro.workload.lru_grid import runs_on_grid
from repro.workload.marking import ContentMarking, RequestMarking
from repro.workload.replay import replay
from repro.workload.sharded import ShardedCompiledTrace
from repro.workload.streaming import TsvWorkload

LEGS = ("generate", "shards", "tsv")


@pytest.fixture(scope="module")
def tiny_trace():
    return IrcacheGenerator(
        IrcacheConfig(
            requests=400, users=20, objects=400, sites=40, duration_hours=1.0, seed=1
        )
    ).stream()


def _on_grid(spec: ReplaySpec) -> bool:
    scheme = spec.scheme.build(np.random.default_rng(spec.seed))
    return runs_on_grid(scheme, spec.policy, spec.refresh_delayed_hits)


class TestDiffReplayStats:
    def test_identical_stats_diff_empty(self, tiny_trace):
        stats = replay(tiny_trace, scheme=build_scheme("no-privacy", seed=0))
        assert diff_replay_stats(stats, stats) == []

    def test_doctored_field_is_named(self, tiny_trace):
        stats = replay(tiny_trace, scheme=build_scheme("no-privacy", seed=0))
        doctored = dataclasses.replace(stats, hits=stats.hits + 1)
        mismatches = diff_replay_stats(stats, doctored)
        assert len(mismatches) == 1
        assert mismatches[0].startswith("hits:")


class TestCaseGrid:
    def test_default_grid_covers_schemes_and_sizes(self):
        cases = default_replay_cases(seed=4)
        assert len(cases) == 17
        assert {c.scheme.name for c in cases} == {
            "no-privacy", "always-delay", "uniform", "exponential",
        }
        assert {c.cache_size for c in cases} >= {64, None}
        assert {c.policy for c in cases} == {"lru", "fifo", "lfu", "random"}
        assert all(c.seed == 4 for c in cases)
        assert len({_case_label(c) for c in cases}) == len(cases)
        # Figure 5(a)'s four algorithms under its per-content marking.
        fig5a = [c for c in cases if isinstance(c.marking, ContentMarking)
                 and c.marking.fraction == 0.2]  # fmt: skip
        assert len(fig5a) == 4 and all(_on_grid(c) for c in fig5a)
        assert sum(_on_grid(c) for c in cases) == 13

    def test_label_spells_out_the_configuration(self):
        spec = ReplaySpec(
            SchemeSpec("uniform"), None, RequestMarking(0.3, seed=2), seed=2
        )
        assert _case_label(spec) == (
            "uniform(k=5, delta=0.01)/lru/cap=inf/mark=request(0.3)/seed=2"
        )
        ablation = dataclasses.replace(
            spec, cache_size=48, marking=None, refresh_delayed_hits=False
        )
        assert _case_label(ablation) == (
            "uniform(k=5, delta=0.01)/lru/cap=48/mark=none/seed=2/no-refresh"
        )


class TestValidateDifferential:
    def test_full_grid_is_bit_identical(self):
        report = validate_replay_differential(seed=3, requests=2000)
        assert report.ok, report.summary()
        assert report.failures == []
        assert report.trace_requests == 2000
        # 17 cases on three legs, then the simulator case.
        assert len(report.results) == 3 * 17 + 1
        assert report.note == "13 of 17 specs on the grid"
        assert report.summary().count(": ok") == len(report.results)
        for leg in LEGS:
            specs = [r.case for r in report.results if r.label.startswith(leg + ":")]
            assert len(specs) == 17
            assert any(map(_on_grid, specs)) and not all(map(_on_grid, specs))

    def test_each_leg_runs_through_the_sweep(self, monkeypatch):
        seen = []
        sweep = differential.run_replay_sweep

        def spy(specs, trace):
            seen.append(type(trace))
            return sweep(specs, trace=trace)

        monkeypatch.setattr(differential, "run_replay_sweep", spy)
        report = validate_replay_differential(seed=1, requests=400, sim_requests=100)
        assert report.ok, report.summary()
        assert seen == [CompiledTrace, ShardedCompiledTrace, TsvWorkload]

    def test_single_case_subset(self):
        case = ReplaySpec(
            SchemeSpec("exponential"), 16, RequestMarking(0.3, seed=1), seed=1
        )
        report = validate_replay_differential(
            cases=[case], seed=1, requests=400, sim_requests=100
        )
        assert report.ok
        assert [r.label.split(":")[0] for r in report.results] == [*LEGS, "simulator"]
        assert report.note == "1 of 1 specs on the grid"
        # The oracle actually did work (this is not a vacuous pass).
        assert report.results[0].oracle.requests == 400

    def test_report_surfaces_mismatches(self):
        good = validate_replay_differential(
            cases=[ReplaySpec(SchemeSpec("no-privacy"), seed=1)],
            seed=1,
            requests=400,
            sim_requests=100,
        ).results[0]
        bad = dataclasses.replace(good.fast, misses=good.fast.misses + 7)
        doctored = CaseResult(
            label=good.label,
            case=good.case,
            oracle=good.oracle,
            fast=bad,
            mismatches=diff_replay_stats(good.oracle, bad),
        )
        report = DifferentialReport(results=[good, doctored], trace_requests=400)
        assert not report.ok
        assert report.failures == [doctored]
        assert "MISMATCH" in report.summary()
        assert "misses" in report.summary()


class TestOracleIndependence:
    """The oracle reads the generator stream, never a compiled trace under
    test: an interning defect must show as a mismatch, not identically
    on both sides."""

    @staticmethod
    def _merge(columns):
        """The columns with two distinct content ids mapped to one."""
        ids = np.where(columns["ids"] == 1, 0, columns["ids"])
        return {**columns, "ids": ids.astype(np.int32)}

    def test_replay_differential_flags_an_interning_defect(self, monkeypatch):
        intern = sharded._intern_pass
        monkeypatch.setattr(
            sharded,
            "_intern_pass",
            lambda *args: ((self._merge(c), uris) for c, uris in intern(*args)),
        )
        report = validate_replay_differential(seed=1, requests=600, sim_requests=200)
        assert not report.ok
        assert len(report.failures) == len(report.results)

    def test_streaming_differential_flags_an_interning_defect(self, monkeypatch):
        # Only the stream -> shards leg is wrong: it alone fails, on every
        # case, against the oracle itself (no other leg is its reference).
        push = sharded._ShardWriter.push
        monkeypatch.setattr(
            sharded._ShardWriter,
            "push",
            lambda writer, columns: push(writer, self._merge(columns)),
        )
        report = validate_replay_differential(seed=1, requests=600, sim_requests=200)
        failed = {result.label.split(":")[0] for result in report.failures}
        assert failed == {"shards"}
        assert len(report.failures) == len(default_replay_cases())
