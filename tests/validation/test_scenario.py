"""The canonical overload scenario at its default scale (200 legitimate
fetches, one flood interest every 2 ms), under every router
configuration of :data:`OVERLOAD_CONFIGS`."""

from __future__ import annotations

import pytest

from repro.validation import OVERLOAD_CONFIGS, run_overload_scenario
from repro.validation.scenario import FETCHES, OVERLOAD_PIT_CAPACITY


@pytest.fixture(scope="module")
def results():
    return {
        config: run_overload_scenario(**kwargs)
        for config, kwargs in OVERLOAD_CONFIGS.items()
    }


class TestOverloadScenario:
    """What each run reports of itself."""

    def test_unbounded_baseline_swells_and_stays_consistent(self, results):
        result = results["unbounded-baseline"]
        assert result.attempted == FETCHES
        assert result.delivery_rate == 1.0
        # ~lifetime/interval flood entries dangle at once.
        assert result.peak_pit_size > 10 * OVERLOAD_PIT_CAPACITY
        assert result.checker.checks_run > 0
        result.checker.assert_ok()

    def test_bounded_router_holds_the_cap_and_delivers(self, results):
        result = results["bounded-evict"]
        assert result.peak_pit_size <= OVERLOAD_PIT_CAPACITY
        assert result.delivery_rate >= 0.9
        # Congestion was signaled, not silently swallowed.
        assert result.router_summary["nack_out"] > 0
        assert result.checker.checks_run > 0
        result.checker.assert_ok()

    def test_pollution_adds_cs_churn(self, results):
        clean, polluted = results["bounded-evict"], results["bounded-polluted"]
        assert (
            polluted.router_summary["cs_evictions"]
            > clean.router_summary["cs_evictions"]
        )
        polluted.checker.assert_ok()

    def test_result_exposes_the_summary_observables(self, results):
        result = results["bounded-drop-new"]
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
    """The :data:`OVERLOAD_CONFIGS` routers against each other: the flood
    drives the unbounded baseline PIT past 10x the bounded capacity while
    every bounded router holds the cap and keeps delivering."""

    def test_flood_bounded_vs_unbounded(self, results):
        for name in ("unbounded-baseline", "bounded-evict", "bounded-drop-new"):
            assert results[name].checker.checks_run > 0, name
            results[name].checker.assert_ok()
        baseline = results["unbounded-baseline"]
        assert baseline.peak_pit_size > 10 * OVERLOAD_PIT_CAPACITY
        for name in ("bounded-evict", "bounded-drop-new"):
            assert results[name].peak_pit_size <= OVERLOAD_PIT_CAPACITY, name

    def test_pollution_churns_but_delivery_holds(self, results):
        clean, polluted = results["bounded-evict"], results["bounded-polluted"]
        clean.checker.assert_ok()
        polluted.checker.assert_ok()
        # Retransmission keeps legitimate delivery acceptable.
        assert polluted.delivery_rate >= 0.9
