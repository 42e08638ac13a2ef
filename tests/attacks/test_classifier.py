"""Unit tests for RTT hit/miss classifiers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.classifier import (
    ThresholdClassifier,
    bayes_success,
    gaussian_success,
    optimal_threshold,
)


class TestOptimalThreshold:
    def test_separable_classes_perfect_accuracy(self):
        t, acc = optimal_threshold([1.0, 1.1, 1.2], [5.0, 5.1, 5.2])
        assert acc == 1.0
        assert 1.2 < t <= 5.0

    def test_identical_classes_chance_accuracy(self):
        samples = [1.0, 2.0, 3.0]
        _t, acc = optimal_threshold(samples, samples)
        assert acc == pytest.approx(0.5, abs=0.2)

    def test_overlapping_classes_between_half_and_one(self):
        rng = np.random.default_rng(0)
        hits = rng.normal(3.0, 1.0, 500)
        misses = rng.normal(5.0, 1.0, 500)
        _t, acc = optimal_threshold(hits, misses)
        assert 0.7 < acc < 0.95

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            optimal_threshold([], [1.0])
        with pytest.raises(ValueError):
            optimal_threshold([1.0], [])


class TestBayesSuccess:
    def test_disjoint_distributions(self):
        assert bayes_success([1.0] * 50, [10.0] * 50) == pytest.approx(1.0)

    def test_identical_distributions_near_half(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(5.0, 1.0, 3000)
        success = bayes_success(samples, samples)
        assert success == pytest.approx(0.5, abs=0.02)

    def test_gaussian_case_matches_analytic(self):
        rng = np.random.default_rng(2)
        shift, sigma = 2.0, 1.0
        hits = rng.normal(3.0, sigma, 30000)
        misses = rng.normal(3.0 + shift, sigma, 30000)
        estimated = bayes_success(hits, misses, bins=80)
        analytic = gaussian_success(shift, sigma)
        assert estimated == pytest.approx(analytic, abs=0.03)

    def test_degenerate_equal_values(self):
        assert bayes_success([5.0, 5.0], [5.0, 5.0]) == 0.5

    def test_more_separation_more_success(self):
        rng = np.random.default_rng(3)
        hits = rng.normal(0.0, 1.0, 5000)
        near = rng.normal(1.0, 1.0, 5000)
        far = rng.normal(4.0, 1.0, 5000)
        assert bayes_success(hits, far) > bayes_success(hits, near)


class TestGaussianSuccess:
    def test_no_shift_is_chance(self):
        assert gaussian_success(0.0, 1.0) == pytest.approx(0.5)

    def test_large_shift_is_certain(self):
        assert gaussian_success(100.0, 1.0) == pytest.approx(1.0)

    def test_paper_fig3c_regime(self):
        """A one-link delta inside multi-hop jitter: success ≈ 0.59."""
        assert gaussian_success(5.0, 10.5) == pytest.approx(0.59, abs=0.02)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            gaussian_success(1.0, 0.0)


class TestThresholdClassifier:
    def test_fit_and_classify(self):
        clf = ThresholdClassifier.fit([1.0, 1.2], [4.0, 4.5])
        assert clf.is_hit(1.1)
        assert not clf.is_hit(4.2)
        assert clf.training_accuracy == 1.0

    def test_from_reference_hits_only(self):
        """The paper's d2 procedure: threshold from repeated cached fetches."""
        reference = [2.0, 2.1, 1.9, 2.05, 2.0]
        clf = ThresholdClassifier.from_reference(reference, margin_sigmas=4.0)
        assert clf.is_hit(2.1)
        assert not clf.is_hit(8.0)

    def test_from_reference_single_sample(self):
        clf = ThresholdClassifier.from_reference([3.0])
        assert clf.is_hit(3.0 - 1e-9)

    def test_accuracy_on_holdout(self):
        rng = np.random.default_rng(4)
        clf = ThresholdClassifier.fit(
            rng.normal(2, 0.2, 200), rng.normal(6, 0.5, 200)
        )
        acc = clf.accuracy(rng.normal(2, 0.2, 200), rng.normal(6, 0.5, 200))
        assert acc > 0.99


class TestLikelihoodRatioClassifier:
    def test_separable_classes_perfect(self):
        from repro.attacks.classifier import LikelihoodRatioClassifier

        clf = LikelihoodRatioClassifier([1.0, 1.1, 1.2] * 20, [5.0, 5.1] * 20)
        assert clf.is_hit(1.05)
        assert not clf.is_hit(5.05)

    def test_out_of_range_assignment(self):
        from repro.attacks.classifier import LikelihoodRatioClassifier

        clf = LikelihoodRatioClassifier([2.0] * 10, [6.0] * 10)
        assert clf.is_hit(0.5)        # faster than anything seen: hit
        assert not clf.is_hit(50.0)   # slower than anything seen: miss

    def test_log_ratio_signs(self):
        from repro.attacks.classifier import LikelihoodRatioClassifier

        rng = np.random.default_rng(6)
        clf = LikelihoodRatioClassifier(
            rng.normal(3, 0.5, 2000), rng.normal(6, 0.5, 2000)
        )
        assert clf.log_likelihood_ratio(3.0) > 0
        assert clf.log_likelihood_ratio(6.0) < 0

    def test_matches_bayes_ceiling_on_gaussians(self):
        from repro.attacks.classifier import LikelihoodRatioClassifier

        rng = np.random.default_rng(7)
        shift, sigma = 2.0, 1.0
        train_h = rng.normal(3, sigma, 20000)
        train_m = rng.normal(3 + shift, sigma, 20000)
        clf = LikelihoodRatioClassifier(train_h, train_m, bins=60)
        acc = clf.accuracy(rng.normal(3, sigma, 4000),
                           rng.normal(3 + shift, sigma, 4000))
        assert acc == pytest.approx(gaussian_success(shift, sigma), abs=0.02)

    def test_at_least_as_good_as_threshold_on_overlap(self):
        """On a bimodal miss distribution a single threshold is suboptimal;
        the likelihood rule is not."""
        from repro.attacks.classifier import LikelihoodRatioClassifier

        rng = np.random.default_rng(8)
        hits = rng.normal(5.0, 0.4, 6000)
        # Misses on BOTH sides of the hit mode (e.g. a miss served by a
        # nearer alternate path plus the far producer).
        misses = np.concatenate([
            rng.normal(2.0, 0.4, 3000), rng.normal(8.0, 0.4, 3000),
        ])
        lr = LikelihoodRatioClassifier(hits, misses, bins=60)
        threshold = ThresholdClassifier.fit(hits, misses)
        test_h = rng.normal(5.0, 0.4, 2000)
        test_m = np.concatenate([
            rng.normal(2.0, 0.4, 1000), rng.normal(8.0, 0.4, 1000),
        ])
        assert lr.accuracy(test_h, test_m) > threshold.accuracy(test_h, test_m) + 0.2

    def test_fig3c_held_out_comparison(self):
        """Threshold vs likelihood-ratio on held-out Figure 3(c) producer
        probes at Figure 3's scale (6 trials of 60 objects): with unimodal
        hit/miss classes the two are near-equivalent."""
        from repro.attacks.classifier import LikelihoodRatioClassifier
        from repro.attacks.producer_probe import (
            collect_producer_probe_distributions,
        )
        from repro.ndn.topology import wan_producer

        train, test = (
            collect_producer_probe_distributions(
                wan_producer, objects_per_trial=60, trials=6, base_seed=seed
            )
            for seed in (0, 500)
        )
        threshold = ThresholdClassifier.fit(train.hit_rtts, train.miss_rtts)
        likelihood = LikelihoodRatioClassifier(
            train.hit_rtts, train.miss_rtts, bins=30
        )
        scores = {
            "ceiling": bayes_success(test.hit_rtts, test.miss_rtts, bins=30),
            "threshold": threshold.accuracy(test.hit_rtts, test.miss_rtts),
            "likelihood": likelihood.accuracy(test.hit_rtts, test.miss_rtts),
        }
        # Both practical classifiers land in the weak-probe band and within
        # a few points of each other.
        assert 0.5 < scores["threshold"] < 0.75
        assert 0.5 < scores["likelihood"] < 0.75
        assert abs(scores["likelihood"] - scores["threshold"]) < 0.08
        for score in scores.values():
            assert 0.0 <= score <= 1.0
