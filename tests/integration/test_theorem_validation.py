"""Integration: every theorem checked against the exact oracle and
Monte-Carlo over a parameter grid — the closed forms, the oracle model,
and the running scheme code must all agree.
"""

from __future__ import annotations

import pytest

from repro.core.privacy.distributions import TruncatedGeometric, UniformK
from repro.core.privacy.empirical import estimate_utility
from repro.core.privacy.guarantees import (
    exponential_privacy,
    solve_exponential_params,
    solve_uniform_K,
    uniform_privacy,
)
from repro.core.privacy.oracle import oracle_guarantee
from repro.core.privacy.utility import (
    exponential_utility,
    uniform_utility,
)
from repro.core.schemes.exponential import ExponentialRandomCache
from repro.core.schemes.uniform import UniformRandomCache


GRID_UNIFORM = [(1, 10), (2, 25), (5, 50), (3, 100)]
GRID_EXPO = [(1, 0.9, 20), (2, 0.8, 30), (5, 0.95, 60), (3, 0.99, 200)]


class TestTheoremVI1:
    @pytest.mark.parametrize("k,K", GRID_UNIFORM)
    def test_oracle_attains_exactly_2k_over_K(self, k, K):
        analysis = oracle_guarantee(UniformK(K), k=k, t=K + k + 1, epsilon=0.0)
        assert analysis.delta_at_zero == pytest.approx(
            uniform_privacy(k, K).delta, abs=1e-9
        )


class TestTheoremVI3:
    @pytest.mark.parametrize("k,alpha,K", GRID_EXPO)
    def test_oracle_delta_matches_closed_form(self, k, alpha, K):
        theorem = exponential_privacy(k, alpha, K)
        analysis = oracle_guarantee(
            TruncatedGeometric(alpha, K), k=k, t=K + k + 1,
            epsilon=theorem.epsilon,
        )
        assert analysis.delta_at_epsilon == pytest.approx(theorem.delta, abs=1e-9)

    @pytest.mark.parametrize("k,alpha,K", GRID_EXPO)
    def test_smaller_epsilon_budget_costs_more_delta(self, k, alpha, K):
        theorem = exponential_privacy(k, alpha, K)
        tight = oracle_guarantee(
            TruncatedGeometric(alpha, K), k=k, t=K + k + 1,
            epsilon=theorem.epsilon / 2,
        )
        assert tight.delta_at_epsilon >= theorem.delta - 1e-9


#: (K | alpha, K; c values, trials, tolerance) per Monte-Carlo utility
#: check.  The ``fig4`` rows are Figure 4's cross-check: three points per
#: scheme at 20 000 trials, within ±0.01 of the closed form.
UNIFORM_UTILITY = [
    pytest.param(K, (1, K // 2 or 1, K, K + 10), 4000, 0.025, id=f"{k}-{K}")
    for k, K in GRID_UNIFORM
] + [pytest.param(40, (5, 20, 60), 20000, 0.01, id="fig4")]
EXPO_UTILITY = [
    pytest.param(alpha, K, (1, K // 2, K + 5), 4000, 0.025, id=f"{k}-{alpha}-{K}")
    for k, alpha, K in GRID_EXPO[:3]
] + [pytest.param(0.95, 88, (5, 20, 60), 20000, 0.01, id="fig4")]


class TestTheoremVI2VI4:
    @pytest.mark.parametrize("K,cs,trials,tolerance", UNIFORM_UTILITY)
    def test_uniform_utility_measured(self, K, cs, trials, tolerance):
        for c in cs:
            measured = estimate_utility(
                lambda rng: UniformRandomCache(K=K, rng=rng), c=c, trials=trials
            )
            assert measured == pytest.approx(uniform_utility(c, K), abs=tolerance)

    @pytest.mark.parametrize("alpha,K,cs,trials,tolerance", EXPO_UTILITY)
    def test_exponential_utility_measured(self, alpha, K, cs, trials, tolerance):
        for c in cs:
            measured = estimate_utility(
                lambda rng: ExponentialRandomCache(alpha=alpha, K=K, rng=rng),
                c=c,
                trials=trials,
            )
            assert measured == pytest.approx(
                exponential_utility(c, alpha, K), abs=tolerance
            )


class TestSolversRoundTrip:
    @pytest.mark.parametrize("k,delta", [(1, 0.05), (5, 0.05), (3, 0.01), (2, 0.2)])
    def test_uniform_solver_guarantee_roundtrip(self, k, delta):
        K = solve_uniform_K(k, delta)
        achieved = uniform_privacy(k, K)
        # Verified against the oracle too, not just the closed form.
        analysis = oracle_guarantee(UniformK(K), k=k, t=K + k + 1, epsilon=0.0)
        assert analysis.delta_at_zero <= delta + 1e-9
        assert achieved.delta <= delta

    @pytest.mark.parametrize("k,eps,delta", [
        (1, 0.03, 0.05), (5, 0.04, 0.05), (2, 0.005, 0.01),
    ])
    def test_exponential_solver_guarantee_roundtrip(self, k, eps, delta):
        alpha, K = solve_exponential_params(k, eps, delta)
        assert K is not None
        analysis = oracle_guarantee(
            TruncatedGeometric(alpha, K), k=k, t=K + k + 1, epsilon=eps
        )
        assert analysis.delta_at_epsilon <= delta + 1e-9


class TestSchemeComparison:
    def test_exponential_dominates_uniform_at_equal_privacy(self):
        """The Section VI comparison: at matched (k, δ), the exponential
        scheme's utility is at least the uniform scheme's for every c."""
        k, delta = 1, 0.05
        K_uni = solve_uniform_K(k, delta)
        for eps in (0.03, 0.04, 0.05):
            alpha, K_expo = solve_exponential_params(k, eps, delta)
            for c in range(1, 101):
                assert (
                    exponential_utility(c, alpha, K_expo)
                    >= uniform_utility(c, K_uni) - 1e-9
                )
