"""First-hit-index distributions for Random-Cache (Algorithm 1).

Random-Cache draws, per content, a threshold k_C from a distribution K on
[0, K); the first k_C + 1 requests are answered as misses, everything after
as hits.  The paper instantiates K as:

* the discrete uniform U(0, K) — **Uniform-Random-Cache** (Thm VI.1/VI.2),
* the truncated geometric G̃(α, 0, K−1) — **Exponential-Random-Cache**
  (Thm VI.3/VI.4); the untruncated limit K → ∞ is supported because
  Figure 4(b) evaluates the ε = −ln(1−δ) boundary where only K = ∞
  attains the target δ.

The degenerate point mass reproduces the paper's non-private naive
k-threshold scheme inside the same machinery.
"""

from __future__ import annotations

import abc
import math
from typing import List, Optional

import numpy as np


class FirstHitDistribution(abc.ABC):
    """Distribution of the per-content threshold k_C."""

    #: Exclusive upper bound of the support, or None for unbounded.
    domain_size: Optional[int]

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator) -> int:
        """Draw one threshold k_C."""

    def sample_block(self, rng: np.random.Generator, n: int) -> List[int]:
        """What ``n`` :meth:`sample` calls would return, in order, and the
        ``rng`` state they would leave; overrides make one generator call."""
        return [self.sample(rng) for _ in range(n)]

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """:meth:`sample_block` as an ``int64`` array (same values, same
        ``rng`` state); overrides skip the list."""
        return np.array(self.sample_block(rng, n), dtype=np.int64)

    @abc.abstractmethod
    def pmf(self, r: int) -> float:
        """Pr[K = r]."""

    @abc.abstractmethod
    def mean(self) -> float:
        """E[K]."""

    def cdf(self, r: int) -> float:
        """Pr[K <= r] (generic finite-sum fallback)."""
        if r < 0:
            return 0.0
        upper = r if self.domain_size is None else min(r, self.domain_size - 1)
        return float(sum(self.pmf(i) for i in range(upper + 1)))


class UniformK(FirstHitDistribution):
    """Discrete uniform on {0, 1, ..., K−1}: Pr[K = r] = 1/K."""

    def __init__(self, K: int) -> None:
        if K < 1:
            raise ValueError(f"uniform domain size K must be >= 1, got {K}")
        self.K = K
        self.domain_size = K

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.K))

    def sample_block(self, rng: np.random.Generator, n: int) -> List[int]:
        return self.sample_array(rng, n).tolist()

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.integers(self.K, size=n)

    def pmf(self, r: int) -> float:
        return 1.0 / self.K if 0 <= r < self.K else 0.0

    def cdf(self, r: int) -> float:
        if r < 0:
            return 0.0
        return min(1.0, (r + 1) / self.K)

    def mean(self) -> float:
        return (self.K - 1) / 2.0

    def __repr__(self) -> str:
        return f"UniformK(K={self.K})"


class TruncatedGeometric(FirstHitDistribution):
    """Truncated geometric G̃(α, 0, K−1): Pr[K = r] = (1−α)α^r / (1−α^K).

    ``K=None`` gives the untruncated geometric Pr[K = r] = (1−α)α^r, the
    K → ∞ limit used on the ε = −ln(1−δ) boundary of Figure 4(b).
    """

    def __init__(self, alpha: float, K: Optional[int] = None) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if K is not None and K < 1:
            raise ValueError(f"truncation bound K must be >= 1 or None, got {K}")
        self.alpha = alpha
        self.K = K
        self.domain_size = K
        # Normalizer: sum over [0, K-1] of (1-α)α^r = 1 - α^K.
        self._norm = 1.0 - alpha**K if K is not None else 1.0

    def sample(self, rng: np.random.Generator) -> int:
        if self.K is None:
            # Inverse-CDF sampling of the geometric on {0, 1, ...}.
            u = rng.random()
            return int(math.floor(math.log1p(-u) / math.log(self.alpha)))
        # Inverse-CDF on the truncated support: F(r) = (1 - α^(r+1)) / (1 - α^K).
        u = rng.random() * self._norm
        r = int(math.floor(math.log1p(-u) / math.log(self.alpha)))
        return min(r, self.K - 1)

    def sample_block(self, rng: np.random.Generator, n: int) -> List[int]:
        return self.sample_array(rng, n).tolist()

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # The product, the division, floor and the clip are exactly
        # rounded, so only log1p can differ from sample(): np.log1p may
        # miss math.log1p by an ulp, which moves floor() only for a
        # quotient next to an integer.  Those few are redone with
        # math.log1p; the margin is millions of ulps wide.
        # (K=None: _norm is 1.0, u * 1.0 is u.)
        x = -(rng.random(n) * self._norm)
        log_alpha = math.log(self.alpha)
        q = np.log1p(x) / log_alpha
        near = np.flatnonzero(
            np.abs(q - np.rint(q)) <= 1e-9 * np.maximum(1.0, np.abs(q))
        )
        if near.size:
            q[near] = [math.log1p(v) / log_alpha for v in x[near].tolist()]
        r = np.floor(q)
        if self.K is not None:
            np.minimum(r, self.K - 1, out=r)
        return r.astype(np.int64)

    def pmf(self, r: int) -> float:
        if r < 0 or (self.K is not None and r >= self.K):
            return 0.0
        return (1.0 - self.alpha) * self.alpha**r / self._norm

    def cdf(self, r: int) -> float:
        if r < 0:
            return 0.0
        if self.K is not None and r >= self.K - 1:
            return 1.0
        return (1.0 - self.alpha ** (r + 1)) / self._norm

    def mean(self) -> float:
        a = self.alpha
        if self.K is None:
            return a / (1.0 - a)
        K = self.K
        # E[K] = sum r (1-a) a^r / (1-a^K) over [0, K-1].
        numer = a * (1.0 - a**K) / (1.0 - a) - K * a**K
        return numer / (1.0 - a**K)

    def __repr__(self) -> str:
        return f"TruncatedGeometric(alpha={self.alpha}, K={self.K})"


class DegenerateK(FirstHitDistribution):
    """Point mass at a fixed k: the paper's naive (non-private) threshold."""

    def __init__(self, k: int) -> None:
        if k < 0:
            raise ValueError(f"degenerate threshold must be >= 0, got {k}")
        self.k = k
        self.domain_size = k + 1

    def sample(self, rng: np.random.Generator) -> int:
        return self.k

    def sample_block(self, rng: np.random.Generator, n: int) -> List[int]:
        return [self.k] * n

    def pmf(self, r: int) -> float:
        return 1.0 if r == self.k else 0.0

    def cdf(self, r: int) -> float:
        return 1.0 if r >= self.k else 0.0

    def mean(self) -> float:
        return float(self.k)

    def __repr__(self) -> str:
        return f"DegenerateK(k={self.k})"
