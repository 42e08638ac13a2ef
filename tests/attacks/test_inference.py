"""Tests for the Bayesian request-count inference extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.inference import RequestCountInference
from repro.core.privacy.distributions import (
    DegenerateK,
    TruncatedGeometric,
    UniformK,
)
from repro.core.schemes.uniform import UniformRandomCache


class TestPosteriorMechanics:
    def test_posterior_normalized(self):
        inf = RequestCountInference(UniformK(10), x_max=5, t=12)
        for m in range(13):
            posterior = inf.posterior(m)
            assert sum(posterior.values()) == pytest.approx(1.0)

    def test_impossible_observation_falls_back_to_prior(self):
        # Prefix longer than any k+1 can produce under every hypothesis:
        # with K=3 the max prefix is 3 (k=2 plus fetch) for x=0.
        inf = RequestCountInference(UniformK(3), x_max=2, t=10)
        posterior = inf.posterior(9)
        assert posterior == pytest.approx({0: 1 / 3, 1: 1 / 3, 2: 1 / 3})

    def test_custom_prior_respected(self):
        prior = [0.7, 0.2, 0.1]
        inf = RequestCountInference(UniformK(50), x_max=2, t=3, prior=prior)
        # With a near-uninformative observation the posterior tracks the
        # prior mode.
        assert inf.map_estimate(2) in (0, 1, 2)
        assert inf.report().baseline_accuracy == pytest.approx(0.7)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            RequestCountInference(UniformK(5), x_max=0, t=3)
        with pytest.raises(ValueError):
            RequestCountInference(UniformK(5), x_max=2, t=0)
        with pytest.raises(ValueError):
            RequestCountInference(UniformK(5), x_max=2, t=3, prior=[0.5, 0.5])
        inf = RequestCountInference(UniformK(5), x_max=2, t=3)
        with pytest.raises(ValueError):
            inf.posterior(4)
        with pytest.raises(ValueError):
            inf.likelihood(0, 9)


class TestLeakageSpectrum:
    def test_degenerate_scheme_fully_identified(self):
        """The naive k-threshold leaks x exactly (counting attack)."""
        k = 5
        inf = RequestCountInference(DegenerateK(k), x_max=k, t=k + 2)
        report = inf.report()
        assert report.map_accuracy == pytest.approx(1.0)
        # Every observation pins x: m = k + 1 - x exactly.
        for x in range(k + 1):
            m = min(k + 1 - x, k + 2) if x > 0 else k + 1
            assert inf.map_estimate(m) == x

    def test_uniform_scheme_nearly_flat(self):
        """Large-K uniform: the posterior barely moves off the prior."""
        K, k = 400, 5
        inf = RequestCountInference(UniformK(K), x_max=k, t=K + k)
        report = inf.report()
        # Theorem VI.1 flavor: the identifying mass is O(k/K) per pair.
        assert report.advantage < 0.05
        assert report.information_gain_bits < 0.25

    def test_exponential_leaks_more_than_uniform_at_same_K(self):
        K = 60
        uniform_report = RequestCountInference(
            UniformK(K), x_max=5, t=K + 5
        ).report()
        expo_report = RequestCountInference(
            TruncatedGeometric(0.7, K), x_max=5, t=K + 5
        ).report()
        assert expo_report.map_accuracy > uniform_report.map_accuracy
        assert expo_report.information_gain_bits > uniform_report.information_gain_bits

    def test_smaller_K_leaks_more(self):
        tight = RequestCountInference(UniformK(10), x_max=5, t=20).report()
        loose = RequestCountInference(UniformK(200), x_max=5, t=210).report()
        assert tight.map_accuracy > loose.map_accuracy

    def test_accuracy_bounds(self):
        report = RequestCountInference(UniformK(20), x_max=5, t=30).report()
        assert report.baseline_accuracy <= report.map_accuracy <= 1.0
        assert report.information_gain_bits >= -1e-9

    def test_spectrum_across_the_scheme_space(self):
        """What a full probe transcript reveals about x in 0..5: determinism
        leaks everything, uniform randomization O(k/K), and exponential
        skew trades leakage for utility."""
        reports = {
            label: RequestCountInference(dist, x_max=5, t=t).report()
            for label, dist, t in (
                ("naive", DegenerateK(5), 12),
                ("expo 0.5", TruncatedGeometric(0.5, 40), 50),
                ("expo 0.9", TruncatedGeometric(0.9, 40), 50),
                ("expo 0.99", TruncatedGeometric(0.99, 400), 410),
                ("uniform 20", UniformK(20), 30),
                ("uniform 100", UniformK(100), 110),
                ("uniform 1000", UniformK(1000), 1010),
            )
        }
        accuracy = {label: r.map_accuracy for label, r in reports.items()}
        # Deterministic threshold: total identification.
        assert accuracy["naive"] == pytest.approx(1.0)
        # Uniform leakage shrinks like 1/K, to near-zero advantage.
        assert (
            accuracy["uniform 20"] > accuracy["uniform 100"] > accuracy["uniform 1000"]
        )
        assert reports["uniform 1000"].advantage < 0.02
        # Exponential: smaller alpha (better utility) leaks more.
        assert accuracy["expo 0.5"] > accuracy["expo 0.9"]
        # At the paper's Figure 5 operating point (alpha ~0.99, K ~400+)
        # the count inference is close to blind.
        assert reports["expo 0.99"].information_gain_bits < 0.3


class TestMonteCarloValidation:
    def test_simulated_accuracy_matches_analytic(self):
        K, k = 12, 3
        inf = RequestCountInference(UniformK(K), x_max=k, t=K + k)
        analytic = inf.report().map_accuracy
        simulated = inf.simulate_accuracy(
            lambda rng: UniformRandomCache(K=K, rng=rng), trials=1500
        )
        assert simulated == pytest.approx(analytic, abs=0.05)
