"""The canonical overload scenario, at test scale and at its default scale
(200 legitimate fetches, one flood interest every 2 ms)."""

from __future__ import annotations

import pytest

from repro.ndn.admission import InterestRateLimit
from repro.validation import (
    OVERLOAD_CONFIGS,
    InvariantChecker,
    run_overload_scenario,
)
from repro.validation.scenario import OVERLOAD_PIT_CAPACITY

FAST = dict(
    fetches=10,
    fetch_interval=20.0,
    flood_start=50.0,
    flood_end=250.0,
    flood_interval=4.0,
    flood_lifetime=200.0,
    check_interval=100.0,
)


class TestOverloadScenario:
    def test_unbounded_baseline_swells_and_stays_consistent(self):
        result = run_overload_scenario(pit_capacity=None, **FAST)
        assert result.attempted == 10
        assert result.delivery_rate == 1.0
        # ~lifetime/interval flood entries dangle at once.
        assert result.peak_pit_size >= 40
        assert result.checker.checks_run > 0
        result.checker.assert_ok()

    def test_bounded_router_holds_the_cap_and_delivers(self):
        result = run_overload_scenario(
            pit_capacity=8,
            pit_overflow="evict-oldest-expiry",
            rate_limit=InterestRateLimit(rate=200.0, burst=20.0),
            **FAST,
        )
        assert result.peak_pit_size <= 8
        assert result.delivery_rate >= 0.9
        assert result.router_summary["nack_out"] > 0
        result.checker.assert_ok()

    def test_pollution_adds_cs_churn(self):
        clean = run_overload_scenario(pit_capacity=8, cs_capacity=4, **FAST)
        polluted = run_overload_scenario(
            pit_capacity=8, cs_capacity=4, pollution=True, **FAST
        )
        assert (
            polluted.router_summary["cs_evictions"]
            > clean.router_summary["cs_evictions"]
        )
        polluted.checker.assert_ok()

    def test_caller_supplied_checker_is_used(self):
        checker = InvariantChecker()
        result = run_overload_scenario(pit_capacity=8, checker=checker, **FAST)
        assert result.checker is checker
        assert checker.checks_run > 0

    def test_result_exposes_the_summary_observables(self):
        result = run_overload_scenario(pit_capacity=8, **FAST)
        for key in (
            "pit_size", "pit_peak_size", "pit_capacity", "rate_limited",
            "nack_in", "nack_out", "cs_size", "cs_evictions",
        ):
            assert key in result.router_summary
        assert result.events > 0
        assert result.delivery_rate == pytest.approx(
            result.delivered / result.attempted
        )


class TestOverloadConfigs:
    """The :data:`OVERLOAD_CONFIGS` routers at the scenario's default scale:
    the flood drives the unbounded baseline PIT past 10x the bounded
    capacity while the hardened router holds the cap and keeps delivering."""

    @pytest.fixture(scope="class")
    def results(self):
        return {
            config: run_overload_scenario(**kwargs)
            for config, kwargs in OVERLOAD_CONFIGS.items()
        }

    def test_flood_bounded_vs_unbounded(self, results):
        for name in ("unbounded-baseline", "bounded-evict", "bounded-drop-new"):
            assert results[name].checker.checks_run > 0, name
            results[name].checker.assert_ok()
        baseline, bounded = results["unbounded-baseline"], results["bounded-evict"]
        assert baseline.peak_pit_size > 10 * OVERLOAD_PIT_CAPACITY
        assert bounded.peak_pit_size <= OVERLOAD_PIT_CAPACITY
        assert results["bounded-drop-new"].peak_pit_size <= OVERLOAD_PIT_CAPACITY
        assert bounded.delivery_rate >= 0.9
        # Congestion was signaled, not silently swallowed.
        assert bounded.router_summary["nack_out"] > 0

    def test_pollution_churns_but_delivery_holds(self, results):
        clean, polluted = results["bounded-evict"], results["bounded-polluted"]
        clean.checker.assert_ok()
        polluted.checker.assert_ok()
        assert (
            polluted.router_summary["cs_evictions"]
            > clean.router_summary["cs_evictions"]
        )
        # Retransmission keeps legitimate delivery acceptable.
        assert polluted.delivery_rate >= 0.9
