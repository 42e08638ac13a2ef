"""Differential validation: oracle replay vs the fast kernel."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.validation import (
    DifferentialCase,
    DifferentialReport,
    default_differential_cases,
    diff_replay_stats,
    validate_differential,
    validate_streaming_differential,
)
from repro.workload import sharded
from repro.validation.differential import CaseResult, small_validation_trace
from repro.workload.replay import replay


@pytest.fixture(scope="module")
def tiny_trace():
    return small_validation_trace(requests=400, seed=1)


class TestDiffReplayStats:
    def test_identical_stats_diff_empty(self, tiny_trace):
        from repro.perf.parallel import build_scheme

        stats = replay(tiny_trace, scheme=build_scheme("no-privacy", seed=0))
        assert diff_replay_stats(stats, stats) == []

    def test_doctored_field_is_named(self, tiny_trace):
        from repro.perf.parallel import build_scheme

        stats = replay(tiny_trace, scheme=build_scheme("no-privacy", seed=0))
        doctored = dataclasses.replace(stats, hits=stats.hits + 1)
        mismatches = diff_replay_stats(stats, doctored)
        assert len(mismatches) == 1
        assert mismatches[0].startswith("hits:")


class TestCaseGrid:
    def test_default_grid_covers_schemes_and_sizes(self):
        cases = default_differential_cases(seed=4)
        assert len(cases) == 8
        assert {c.scheme for c in cases} == {
            "no-privacy", "always-delay", "uniform", "exponential",
        }
        assert {c.cache_size for c in cases} == {64, None}
        assert all(c.seed == 4 for c in cases)
        assert len({c.label for c in cases}) == len(cases)

    def test_label_spells_out_the_configuration(self):
        case = DifferentialCase(scheme="uniform", cache_size=None, seed=2)
        assert case.label == "uniform/cap=inf/mark=0.3/seed=2"


class TestValidateDifferential:
    def test_full_grid_is_bit_identical(self):
        trace = small_validation_trace(requests=2000, seed=3)
        report = validate_differential(trace=trace, seed=3)
        assert report.ok, report.summary()
        assert report.failures == []
        assert report.trace_requests == trace.n_requests
        assert len(report.results) == 8
        assert report.summary().count("ok") == 8

    def test_single_case_subset(self, tiny_trace):
        report = validate_differential(
            trace=tiny_trace,
            cases=[DifferentialCase(scheme="exponential", cache_size=16, seed=1)],
        )
        assert report.ok
        assert len(report.results) == 1
        # The oracle actually did work (this is not a vacuous pass).
        assert report.results[0].oracle.requests == tiny_trace.n_requests

    def test_report_surfaces_mismatches(self, tiny_trace):
        good = validate_differential(
            trace=tiny_trace,
            cases=[DifferentialCase(scheme="no-privacy", seed=1)],
        ).results[0]
        doctored = CaseResult(
            label=good.label,
            case=good.case,
            oracle=good.oracle,
            fast=dataclasses.replace(good.fast, misses=good.fast.misses + 7),
            mismatches=diff_replay_stats(
                good.oracle, dataclasses.replace(good.fast, misses=good.fast.misses + 7)
            ),
        )
        report = DifferentialReport(
            results=[good, doctored], trace_requests=tiny_trace.n_requests
        )
        assert not report.ok
        assert report.failures == [doctored]
        assert "MISMATCH" in report.summary()
        assert "misses" in report.summary()


class TestOracleIndependence:
    """The oracle leg reads the source workload, never the compiled trace
    under test: an interning defect must show as a mismatch, not
    identically on both sides."""

    @pytest.fixture
    def merging_interner(self, monkeypatch):
        """An interning pass that maps two distinct keys to one content id."""
        intern = sharded._intern_pass

        def merging(workload, chunk_size):
            for columns, uris in intern(workload, chunk_size):
                ids = np.where(columns["ids"] == 1, 0, columns["ids"])
                yield {**columns, "ids": ids.astype(np.int32)}, uris

        monkeypatch.setattr(sharded, "_intern_pass", merging)

    def test_replay_differential_flags_an_interning_defect(
        self, tiny_trace, merging_interner
    ):
        report = validate_differential(trace=tiny_trace, seed=1)
        assert not report.ok
        assert len(report.failures) == len(report.results)

    def test_streaming_differential_flags_an_interning_defect(self, merging_interner):
        report = validate_streaming_differential(seed=1, requests=600, sim_requests=200)
        failed = {result.label.split(":")[0] for result in report.failures}
        assert {"oracle-anchor", "tsv-oracle-anchor", "simulator"} <= failed
