"""Tests for the per-figure experiment drivers (small-scale runs)."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import (
    run_amplification,
    run_fig3,
    run_fig4a,
    run_fig4b,
    run_fig5a,
    run_fig5b,
)
from repro.workload.ircache import small_test_trace


class TestFig3Driver:
    def test_lan_panel(self):
        result = run_fig3("fig3a_lan", objects_per_trial=15, trials=2)
        assert result.bayes_success > 0.99
        assert result.miss_mean > result.hit_mean
        assert "Figure 3" in result.render()
        assert "Bayes success" in result.render()

    def test_unknown_setting_rejected(self):
        with pytest.raises(ValueError, match="unknown setting"):
            run_fig3("fig9z_nonsense")


class TestFig4Drivers:
    def test_fig4a_structure(self):
        result = run_fig4a(k=1, delta=0.05, epsilons=(0.03, 0.05), c_max=50)
        assert result.uniform_K == 40
        assert len(result.uniform_utilities) == 50
        assert set(result.exponential) == {0.03, 0.05}
        # Exponential dominates uniform for all epsilon (Figure 4(a) shape).
        for _eps, (_a, _K, utilities) in result.exponential.items():
            assert all(
                e >= u - 1e-9
                for e, u in zip(utilities, result.uniform_utilities)
            )
        assert "Figure 4(a)" in result.render()

    def test_fig4a_utility_increases_with_c(self):
        result = run_fig4a(k=5, c_max=80)
        u = result.uniform_utilities
        assert all(a <= b + 1e-12 for a, b in zip(u, u[1:]))

    def test_fig4b_peak_about_12_percent(self):
        result = run_fig4b(k=1, c_max=100)
        assert result.max_difference(0.05) == pytest.approx(0.12, abs=0.02)

    def test_fig4b_ordering_in_delta(self):
        result = run_fig4b(k=1)
        assert (
            result.max_difference(0.01)
            < result.max_difference(0.03)
            < result.max_difference(0.05)
        )
        assert "Figure 4(b)" in result.render()

    def test_fig4b_k5_smaller_differences(self):
        k1 = run_fig4b(k=1).max_difference(0.01)
        k5 = run_fig4b(k=5).max_difference(0.01)
        assert k5 < k1


class TestFig5Drivers:
    @pytest.fixture(scope="class")
    def trace(self):
        return small_test_trace(requests=5000, seed=7)

    def test_fig5a_ordering(self, trace):
        # At this small scale the exponential-vs-uniform gap is within
        # sampling noise (the paper's own curves nearly overlap), so only
        # the robust orderings are asserted; the full-scale bench checks
        # the complete No-Privacy >= Expo >= Uniform >= Always-Delay chain.
        result = run_fig5a(trace, cache_sizes=(100, 500, None))
        for i in range(3):
            none = result.hit_rates["no-privacy"][i]
            expo = result.hit_rates["exponential"][i]
            uni = result.hit_rates["uniform"][i]
            delay = result.hit_rates["always-delay"][i]
            assert none > max(expo, uni, delay)
            assert expo >= delay - 1e-9
            assert uni >= delay - 1e-9
            assert abs(expo - uni) < 3.0  # percentage points
        assert "Figure 5(a)" in result.render()

    def test_fig5a_hit_rate_grows_with_cache(self, trace):
        result = run_fig5a(trace, cache_sizes=(50, 500, None))
        for rates in result.hit_rates.values():
            assert rates[0] <= rates[1] <= rates[2] + 1e-9

    def test_fig5b_private_share_monotone(self, trace):
        result = run_fig5b(
            trace, cache_sizes=(500, None),
            private_fractions=(0.05, 0.2, 0.4),
        )
        labels = ["5% private", "20% private", "40% private"]
        for i in range(2):
            rates = [result.hit_rates[label][i] for label in labels]
            assert rates[0] >= rates[1] >= rates[2]
        assert "Figure 5(b)" in result.render()

    def test_fig5_stats_recorded(self, trace):
        result = run_fig5a(trace, cache_sizes=(None,))
        stats = result.stats[("no-privacy", None)]
        assert stats.requests == trace.n_requests


class TestAmplificationDriver:
    def test_paper_numbers(self):
        result = run_amplification(0.59, max_fragments=8)
        assert result.analytic_success[0] == pytest.approx(0.59)
        assert result.analytic_success[7] == pytest.approx(0.999, abs=0.001)
        assert "amplification" in result.render()


class TestSchemeFactory:
    def test_unknown_scheme_rejected(self):
        from repro.analysis.experiments import _scheme_factory

        with pytest.raises(ValueError, match="unknown scheme"):
            _scheme_factory("mystery", k=5, epsilon=0.01, delta=0.05, seed=0)

    def test_all_known_schemes_construct(self):
        from repro.analysis.experiments import _scheme_factory

        for name in ("no-privacy", "always-delay", "uniform", "exponential"):
            scheme = _scheme_factory(name, k=5, epsilon=0.01, delta=0.05, seed=0)
            assert scheme is not None
