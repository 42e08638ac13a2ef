"""Unit tests for the first-hit distributions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.privacy.distributions import (
    DegenerateK,
    FirstHitDistribution,
    TruncatedGeometric,
    UniformK,
)
from repro.core.schemes.random_cache import _BLOCK


class TestUniformK:
    def test_pmf_uniform(self):
        d = UniformK(5)
        assert all(d.pmf(r) == pytest.approx(0.2) for r in range(5))
        assert d.pmf(-1) == 0.0
        assert d.pmf(5) == 0.0

    def test_pmf_sums_to_one(self):
        d = UniformK(17)
        assert sum(d.pmf(r) for r in range(17)) == pytest.approx(1.0)

    def test_cdf(self):
        d = UniformK(4)
        assert d.cdf(-1) == 0.0
        assert d.cdf(0) == pytest.approx(0.25)
        assert d.cdf(3) == pytest.approx(1.0)
        assert d.cdf(10) == 1.0

    def test_mean(self):
        assert UniformK(5).mean() == 2.0
        assert UniformK(1).mean() == 0.0

    def test_samples_in_domain(self, rng):
        d = UniformK(8)
        samples = [d.sample(rng) for _ in range(1000)]
        assert min(samples) >= 0
        assert max(samples) <= 7

    def test_sample_mean_converges(self, rng):
        d = UniformK(100)
        samples = [d.sample(rng) for _ in range(20000)]
        assert np.mean(samples) == pytest.approx(d.mean(), abs=1.0)

    def test_invalid_K(self):
        with pytest.raises(ValueError):
            UniformK(0)


class TestTruncatedGeometric:
    def test_pmf_formula(self):
        d = TruncatedGeometric(0.5, 4)
        # (1-a) a^r / (1 - a^K) with a=0.5, K=4: norm = 15/16.
        assert d.pmf(0) == pytest.approx(0.5 / (15 / 16))
        assert d.pmf(3) == pytest.approx(0.0625 / (15 / 16))
        assert d.pmf(4) == 0.0

    def test_pmf_sums_to_one(self):
        d = TruncatedGeometric(0.7, 12)
        assert sum(d.pmf(r) for r in range(12)) == pytest.approx(1.0)

    def test_untruncated_pmf(self):
        d = TruncatedGeometric(0.3)
        assert d.pmf(0) == pytest.approx(0.7)
        assert d.pmf(2) == pytest.approx(0.7 * 0.09)
        assert sum(d.pmf(r) for r in range(100)) == pytest.approx(1.0)

    def test_cdf_matches_pmf_sums(self):
        d = TruncatedGeometric(0.6, 9)
        running = 0.0
        for r in range(9):
            running += d.pmf(r)
            assert d.cdf(r) == pytest.approx(running)

    def test_mean_matches_summation(self):
        d = TruncatedGeometric(0.8, 15)
        expected = sum(r * d.pmf(r) for r in range(15))
        assert d.mean() == pytest.approx(expected)

    def test_untruncated_mean(self):
        assert TruncatedGeometric(0.5).mean() == pytest.approx(1.0)

    def test_samples_in_domain(self, rng):
        d = TruncatedGeometric(0.9, 6)
        samples = [d.sample(rng) for _ in range(2000)]
        assert min(samples) >= 0
        assert max(samples) <= 5

    def test_sample_distribution_matches_pmf(self, rng):
        d = TruncatedGeometric(0.5, 8)
        samples = np.array([d.sample(rng) for _ in range(40000)])
        for r in range(8):
            assert np.mean(samples == r) == pytest.approx(d.pmf(r), abs=0.01)

    def test_untruncated_sample_mean(self, rng):
        d = TruncatedGeometric(0.75)
        samples = [d.sample(rng) for _ in range(40000)]
        assert np.mean(samples) == pytest.approx(3.0, abs=0.1)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            TruncatedGeometric(0.0)
        with pytest.raises(ValueError):
            TruncatedGeometric(1.0)

    def test_invalid_K(self):
        with pytest.raises(ValueError):
            TruncatedGeometric(0.5, 0)


class TestDegenerateK:
    def test_point_mass(self):
        d = DegenerateK(3)
        assert d.pmf(3) == 1.0
        assert d.pmf(2) == 0.0
        assert d.cdf(2) == 0.0
        assert d.cdf(3) == 1.0
        assert d.mean() == 3.0

    def test_sample_is_constant(self, rng):
        d = DegenerateK(7)
        assert all(d.sample(rng) == 7 for _ in range(10))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            DegenerateK(-1)


# ----------------------------------------------------------------------
# sample_block: n scalar draws in one generator call, state included
# ----------------------------------------------------------------------
class ScalarOnlyCoin(FirstHitDistribution):
    """A third-party distribution: defines ``sample`` and inherits the
    block."""

    domain_size = 2

    def sample(self, rng):
        return int(rng.random() < 0.5)

    def pmf(self, r):
        return 0.5 if r in (0, 1) else 0.0

    def mean(self):
        return 0.5


#: Either side of numpy's 32-bit / 64-bit bounded-integer paths, K = 1
#: (no draw at all) and a power of two (the mask-free case).
UNIFORM_KS = [1, 2, 3, 2**32 - 1, 2**32, 2**32 + 5, 2**40]
ALPHAS = st.one_of(
    st.sampled_from([1e-12, 1e-6, 0.5, 1 - 1e-6, 1 - 1e-12]),
    st.floats(min_value=1e-9, max_value=1 - 1e-9),
)
DISTRIBUTIONS = st.one_of(
    st.sampled_from(UNIFORM_KS).map(UniformK),
    st.builds(
        TruncatedGeometric,
        ALPHAS,
        st.one_of(st.none(), st.sampled_from([1, 2, 7, 500, 2**40])),
    ),
    st.integers(min_value=0, max_value=2**40).map(DegenerateK),
    st.just(ScalarOnlyCoin()),
)
SEEDS = st.integers(min_value=0, max_value=2**32)


@settings(max_examples=120, deadline=None)
@given(
    dist=DISTRIBUTIONS,
    seed=SEEDS,
    n=st.sampled_from([0, 1, _BLOCK, _BLOCK + 1]),
    odd_start=st.booleans(),
)
def test_sample_block_is_n_sample_calls(dist, seed, n, odd_start):
    block_rng, scalar_rng = (np.random.default_rng(seed) for _ in range(2))
    if odd_start:
        # Leave half a 64-bit word in the bit generator's 32-bit buffer.
        for rng in (block_rng, scalar_rng):
            rng.integers(7)
    block = dist.sample_block(block_rng, n)
    scalar = [dist.sample(scalar_rng) for _ in range(n)]
    assert block == scalar
    assert all(type(k) is int for k in block)
    assert block_rng.bit_generator.state == scalar_rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(
    dist=DISTRIBUTIONS,
    seed=SEEDS,
    pieces=st.lists(
        st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
        min_size=1,
        max_size=6,
    ),
)
def test_blocks_and_scalars_interleave_on_one_stream(dist, seed, pieces):
    """``None`` is one scalar ``sample``, an integer a block of that
    length: any interleaving reads the same stream as scalars alone."""
    mixed_rng, scalar_rng = (np.random.default_rng(seed) for _ in range(2))
    mixed = []
    for piece in pieces:
        if piece is None:
            mixed.append(dist.sample(mixed_rng))
        else:
            mixed.extend(dist.sample_block(mixed_rng, piece))
    assert mixed == [dist.sample(scalar_rng) for _ in range(len(mixed))]
    assert mixed_rng.bit_generator.state == scalar_rng.bit_generator.state


@pytest.mark.parametrize("K", [None, 500])
@pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 10**6])
def test_truncated_geometric_block_at_every_size(K, n):
    """The array transform (only ``log1p`` scalar) against ``sample`` at
    the kernel's block edges and at a whole Fig. 5 grid's worth of draws."""
    dist = TruncatedGeometric(0.999, K)
    block_rng, scalar_rng = (np.random.default_rng(17) for _ in range(2))
    block = dist.sample_block(block_rng, n)
    assert block == [dist.sample(scalar_rng) for _ in range(n)]
    assert all(type(k) is int for k in block[:1000])
    assert block_rng.bit_generator.state == scalar_rng.bit_generator.state
