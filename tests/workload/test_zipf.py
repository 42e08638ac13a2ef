"""Unit tests for the Zipf popularity sampler."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workload.zipf import GUIDE_BITS_CAP, SAMPLE_CHUNK, ZipfSampler


class TestPmf:
    def test_normalized(self):
        sampler = ZipfSampler(100, 0.8)
        assert sum(sampler.pmf(r) for r in range(100)) == pytest.approx(1.0)

    def test_rank_zero_most_popular(self):
        sampler = ZipfSampler(100, 0.8)
        pmfs = [sampler.pmf(r) for r in range(100)]
        assert all(a >= b for a, b in zip(pmfs, pmfs[1:]))

    def test_power_law_ratio(self):
        sampler = ZipfSampler(1000, 1.0)
        assert sampler.pmf(0) / sampler.pmf(9) == pytest.approx(10.0)

    def test_out_of_range_zero(self):
        sampler = ZipfSampler(10, 1.0)
        assert sampler.pmf(-1) == 0.0
        assert sampler.pmf(10) == 0.0

    def test_zero_exponent_is_uniform(self):
        sampler = ZipfSampler(50, 0.0)
        assert sampler.pmf(0) == pytest.approx(1 / 50)
        assert sampler.pmf(49) == pytest.approx(1 / 50)


class TestSampling:
    def test_samples_in_range(self, rng):
        sampler = ZipfSampler(20, 0.8)
        samples = sampler.sample(5000, rng)
        assert samples.min() >= 0
        assert samples.max() < 20

    def test_empirical_matches_pmf(self, rng):
        sampler = ZipfSampler(10, 1.0)
        samples = sampler.sample(100_000, rng)
        for r in range(10):
            assert np.mean(samples == r) == pytest.approx(sampler.pmf(r), abs=0.01)

    def test_zero_count(self, rng):
        assert ZipfSampler(5, 1.0).sample(0, rng).size == 0

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ValueError):
            ZipfSampler(5, 1.0).sample(-1, rng)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0)
        with pytest.raises(ValueError):
            ZipfSampler(5, -0.1)


class TestExpectedUnique:
    def test_matches_simulation(self, rng):
        sampler = ZipfSampler(200, 0.8)
        analytic = sampler.expected_unique(500)
        uniques = []
        for _ in range(60):
            uniques.append(len(np.unique(sampler.sample(500, rng))))
        assert np.mean(uniques) == pytest.approx(analytic, rel=0.03)

    def test_zero_requests(self):
        assert ZipfSampler(10, 1.0).expected_unique(0) == pytest.approx(0.0)

    def test_single_rank_is_drawn_once_without_warnings(self):
        with np.errstate(all="raise"):
            assert ZipfSampler(1, 0.7).expected_unique(5) == 1.0

    def test_bounded_by_population(self):
        sampler = ZipfSampler(50, 0.5)
        assert sampler.expected_unique(10_000) <= 50.0

    def test_monotone_in_requests(self):
        sampler = ZipfSampler(100, 0.9)
        values = [sampler.expected_unique(t) for t in (10, 100, 1000)]
        assert values[0] < values[1] < values[2]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ZipfSampler(10, 1.0).expected_unique(-1)


# ----------------------------------------------------------------------
# Exactness: the guide table returns np.searchsorted's ranks, bit for bit
# ----------------------------------------------------------------------
class _ChosenDraws:
    """A generator stub whose ``random(count)`` returns chosen draws."""

    def __init__(self, u: np.ndarray) -> None:
        self.u = u

    def random(self, count: int) -> np.ndarray:
        assert count == len(self.u)
        return self.u


def edge_draws(sampler: ZipfSampler) -> np.ndarray:
    """Every draw a guide-table sampler can get wrong, shuffled: 0, the
    largest double below 1, every bin edge ``j/m``, each cdf value and
    its two neighbours, padded with uniform draws to span several
    resolve chunks."""
    m = 1 << min((sampler.n - 1).bit_length(), GUIDE_BITS_CAP)
    cdf = sampler._cdf
    u = np.concatenate([
        [0.0, np.nextafter(1.0, 0.0)],
        np.arange(m) / m,
        cdf,
        np.nextafter(cdf, 0.0),
        np.nextafter(cdf, 2.0),
    ])
    u = u[(u >= 0.0) & (u < 1.0)]
    rng = np.random.default_rng(sampler.n)
    pad = rng.random(max(0, 3 * SAMPLE_CHUNK + 1 - len(u)))
    return rng.permutation(np.concatenate([u, pad]))


def searchsorted_mismatches(n: int, exponent: float) -> int:
    """How many of :func:`edge_draws` ``sample`` ranks differently from
    ``np.searchsorted(cdf, u, side="left")``."""
    sampler = ZipfSampler(n, exponent)
    u = edge_draws(sampler)
    ranks = sampler.sample(len(u), _ChosenDraws(u))
    assert ranks.dtype == np.intp
    return int(np.count_nonzero(ranks != np.searchsorted(sampler._cdf, u, "left")))


class TestGuideTableExactness:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=70_000),
        exponent=st.floats(min_value=0.0, max_value=2.0),
    )
    def test_sample_is_searchsorted(self, n, exponent):
        assert searchsorted_mismatches(n, exponent) == 0

    @pytest.mark.parametrize("n,exponent", [
        (1, 0.7),              # one rank: a one-bin table
        (64, 0.0),             # every cdf value sits on a bin edge
        (4_000, 1.0),          # the site sampler: bins up to 9 points wide
        (70_000, 2.0),         # a steep tail: bins past MAX_SCAN points
        (300_000, 0.7),        # past the 2**18-bin cap
    ])
    def test_sample_is_searchsorted_at_the_edges(self, n, exponent):
        assert searchsorted_mismatches(n, exponent) == 0

    def test_real_draws_are_searchsorted(self):
        sampler = ZipfSampler(300_000, 0.7)
        ranks = sampler.sample(50_000, np.random.default_rng(7))
        u = np.random.default_rng(7).random(50_000)
        np.testing.assert_array_equal(ranks, np.searchsorted(sampler._cdf, u))
