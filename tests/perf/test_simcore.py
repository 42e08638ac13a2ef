"""Tests for the sim-core workloads and the profiling layer."""

from __future__ import annotations

import pytest

from repro.perf.simcore import build_star, build_tree, simcore_scripts
from repro.sim import profiling
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


class TestProfilingLayer:
    @pytest.fixture(autouse=True)
    def _clean_profiling(self):
        profiling.disable()
        profiling.reset()
        yield
        profiling.disable()
        profiling.reset()

    def test_off_by_default_collects_nothing(self):
        run_tree(requests=5)
        assert profiling.snapshot() == {}

    def test_enabled_collects_subsystem_timers(self):
        profiling.enable()
        run_tree(requests=5)
        profiling.disable()
        snap = profiling.snapshot()
        for key in ("engine.callback", "link.transmit", "forwarder.interest"):
            assert key in snap
            assert snap[key]["calls"] > 0
            assert snap[key]["total_s"] >= 0.0
        report = profiling.report()
        assert "link.transmit" in report

    def test_enabling_does_not_change_observables(self):
        baseline = run_tree(requests=15)
        profiling.enable()
        profiled = run_tree(requests=15)
        profiling.disable()
        assert diff_observables(baseline, profiled) == []

    def test_reset_clears_counters(self):
        profiling.state.add("x", 0.5)
        profiling.reset()
        assert profiling.snapshot() == {}

    def test_report_without_samples(self):
        assert "no samples" in profiling.report()


class TestProfileCommand:
    def test_sim_core_target(self, capsys):
        from repro.cli import main

        for kernel in KERNELS:
            assert main([
                "profile", "sim-core-tree", "--requests", "5", "--top", "5",
                "--timers", "--kernel", kernel,
            ]) == 0
            out = capsys.readouterr().out
            assert (
                f"profiled sim-core 3-level tree topology ({kernel} kernel)"
                in out
            )
            assert "cumtime" in out  # cProfile table
        assert "run_scripts_batch" in out  # the batch kernel really ran last
        assert main([
            "profile", "sim-core-star", "--consumers", "3", "--requests", "4",
            "--top", "5", "--timers",
        ]) == 0
        out = capsys.readouterr().out
        assert "profiled sim-core star topology (reference kernel)" in out
        assert "link.transmit" in out  # subsystem timers

    def test_fig3_target(self, capsys):
        from repro.cli import main

        assert main([
            "profile", "fig3a_lan", "--objects", "4", "--trials", "1",
            "--top", "3", "--sort", "tottime",
        ]) == 0
        out = capsys.readouterr().out
        assert "profiled fig3 panel fig3a_lan" in out
        assert "tottime" in out

    def test_profile_timers_restore_disabled_state(self):
        from repro.cli import main

        main(["profile", "sim-core-tree", "--requests", "3", "--timers"])
        assert not profiling.state.enabled
