"""Unit tests for analysis statistics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.stats import (
    PdfPair,
    bootstrap_mean_ci,
    empirical_cdf,
    pdf_pair,
    separation_score,
)
from repro.attacks.classifier import bayes_success


def _overlap(pair: PdfPair) -> float:
    """Overlap coefficient of the two mass-normalised histograms."""
    widths = np.diff(np.asarray(pair.bin_edges))
    hit = np.asarray(pair.hit_density)
    miss = np.asarray(pair.miss_density)
    return float(np.sum(np.minimum(hit, miss) * widths))


class TestPdfPair:
    def test_densities_integrate_to_one(self):
        rng = np.random.default_rng(0)
        pair = pdf_pair(rng.normal(3, 1, 1000), rng.normal(7, 1, 1000), bins=50)
        widths = np.diff(pair.bin_edges)
        assert np.sum(np.asarray(pair.hit_density) * widths) == pytest.approx(1.0)
        assert np.sum(np.asarray(pair.miss_density) * widths) == pytest.approx(1.0)

    def test_shared_grid(self):
        pair = pdf_pair([1.0, 2.0], [8.0, 9.0], bins=10)
        assert pair.bin_edges[0] == 1.0
        assert pair.bin_edges[-1] == 9.0
        assert len(pair.bin_centers) == 10

    def test_disjoint_classes_no_overlap(self):
        hits, misses = [1.0, 1.1, 1.2], [9.0, 9.1, 9.2]
        pair = pdf_pair(hits, misses, bins=20)
        assert _overlap(pair) == pytest.approx(0.0)
        assert bayes_success(hits, misses, bins=20) == pytest.approx(1.0)

    def test_identical_classes_full_overlap(self):
        samples = list(np.random.default_rng(1).normal(5, 1, 2000))
        pair = pdf_pair(samples, samples, bins=30)
        assert _overlap(pair) == pytest.approx(1.0)
        assert bayes_success(samples, samples, bins=30) == pytest.approx(0.5)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            pdf_pair([], [1.0])

    def test_degenerate_range_handled(self):
        pair = pdf_pair([5.0, 5.0], [5.0, 5.0], bins=5)
        assert len(pair.bin_centers) == 5


class TestBootstrap:
    def test_ci_contains_mean(self):
        rng = np.random.default_rng(2)
        samples = rng.normal(10.0, 2.0, 500)
        mean, low, high = bootstrap_mean_ci(samples)
        assert low <= mean <= high
        assert low == pytest.approx(10.0, abs=0.5)

    def test_narrower_with_more_data(self):
        rng = np.random.default_rng(3)
        _, l1, h1 = bootstrap_mean_ci(rng.normal(0, 1, 50), seed=1)
        _, l2, h2 = bootstrap_mean_ci(rng.normal(0, 1, 5000), seed=1)
        assert (h2 - l2) < (h1 - l1)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            bootstrap_mean_ci([])
        with pytest.raises(ValueError):
            bootstrap_mean_ci([1.0], confidence=1.5)


class TestCdfAndSeparation:
    def test_empirical_cdf(self):
        values, probs = empirical_cdf([3.0, 1.0, 2.0])
        assert list(values) == [1.0, 2.0, 3.0]
        assert list(probs) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_empirical_cdf_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([])

    def test_separation_score_scales_with_gap(self):
        rng = np.random.default_rng(4)
        hits = rng.normal(0, 1, 2000)
        assert separation_score(hits, rng.normal(4, 1, 2000)) > separation_score(
            hits, rng.normal(1, 1, 2000)
        )

    def test_separation_score_value(self):
        rng = np.random.default_rng(5)
        score = separation_score(rng.normal(0, 1, 20000), rng.normal(2, 1, 20000))
        assert score == pytest.approx(2.0, abs=0.1)

    def test_separation_needs_two_samples(self):
        with pytest.raises(ValueError):
            separation_score([1.0], [2.0, 3.0])
