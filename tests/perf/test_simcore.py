"""Tests for the sim-core workloads on both engines."""

from __future__ import annotations

from repro.perf.simcore import build_star, build_tree, simcore_scripts
from repro.sim.batch import diff_observables, run_scripts

KERNELS = ("reference", "batch")


def _run(built, requests, kernel):
    net, names, universe = built
    return run_scripts(
        net, simcore_scripts(names, requests, universe), kernel=kernel
    )


def run_star(kernel="reference", consumers=4, requests=30, seed=0):
    return _run(build_star(consumers, seed=seed), requests, kernel)


def run_tree(kernel="reference", requests=25, seed=0):
    return _run(build_tree(seed=seed), requests, kernel)


class TestSimCoreDeterminism:
    def test_star_runs_are_identical(self):
        for kernel in KERNELS:
            assert diff_observables(run_star(kernel), run_star(kernel)) == []

    def test_tree_runs_are_identical(self):
        for kernel in KERNELS:
            assert diff_observables(run_tree(kernel), run_tree(kernel)) == []

    def test_all_requests_delivered(self):
        for kernel in KERNELS:
            star = run_star(kernel, requests=10)
            assert star.total_delivered == 4 * 10
            assert star.total_hops > 0
            tree = run_tree(kernel, requests=10)
            assert tree.total_delivered == 8 * 10
            assert tree.total_hops > 0

    def test_seed_changes_timing_not_delivery(self):
        a = run_star(requests=20, seed=0)
        b = run_star(requests=20, seed=1)
        assert a.delivered == b.delivered
        assert a.end_time != b.end_time  # jittery links actually drew

    def test_throughput_properties(self):
        # What the perf ledger divides by wall time to get hops/s.
        result = run_tree(requests=10)
        assert result.total_hops == sum(result.link_packets.values()) > 0
        assert result.events_processed > 0
