"""Zipfian popularity sampling.

Web object popularity is classically Zipf-like with exponent s ≈ 0.6–0.9
(Breslau et al.); the synthetic IRCache-style generator draws object ranks
from :class:`ZipfSampler`.

A draw is inverse-CDF sampling: ``u = rng.random(count)``, and rank
``i`` is the number of cdf points below ``u`` — exactly
``np.searchsorted(cdf, u, side="left")``, which is the contract (the
trace goldens and every seed's trace rest on it).  The search itself
goes through a guide table (the cutpoint method, Chen & Asau 1974):
``m = 2**k`` equal bins over [0, 1), ``k = ceil(log2 n)`` capped at
:data:`GUIDE_BITS_CAP`, where entry ``j`` is ``count(cdf < j/m)``.
Because ``m`` is a power of two, ``u * m`` and ``j / m`` are exact, so
a draw in bin ``j`` has its rank between entries ``j`` and ``j + 1``: an
empty bin gives it directly, and a bin holding cdf points is resolved by
stepping the rank while ``cdf[rank] < u``, one vectorised pass per cdf
point in the widest such bin.  A bin wider than :data:`MAX_SCAN` points
(a steep tail piles thousands into the last bins) is binary-searched
instead.  Draws are resolved :data:`SAMPLE_CHUNK` at a time, so sampling
a 300 000-object catalog keeps its temporaries small.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: log2 of the largest guide table: 2**18 + 1 entries, 1 MiB of int32.
GUIDE_BITS_CAP = 18
#: Draws resolved per vectorised pass.
SAMPLE_CHUNK = 8_192
#: Widest bin resolved by stepping; draws in wider bins are searched.
MAX_SCAN = 16


class ZipfSampler:
    """Samples ranks 0..n−1 with Pr[rank = i] ∝ 1 / (i + 1)^s."""

    def __init__(self, n: int, exponent: float) -> None:
        if n < 1:
            raise ValueError(f"population size must be >= 1, got {n}")
        if exponent < 0:
            raise ValueError(f"Zipf exponent must be >= 0, got {exponent}")
        self.n = n
        self.exponent = exponent
        weights = (np.arange(1, n + 1, dtype=float)) ** (-exponent)
        self._pmf = weights / weights.sum()
        self._cdf = np.cumsum(self._pmf)
        # Guard against floating-point undershoot at the top rank.
        self._cdf[-1] = 1.0
        #: Guide table, built at the first :meth:`sample`.
        self._guide: Optional[np.ndarray] = None

    def pmf(self, rank: int) -> float:
        """Pr[rank] (ranks are 0-based; rank 0 is the most popular)."""
        if not 0 <= rank < self.n:
            return 0.0
        return float(self._pmf[rank])

    def _guide_table(self) -> np.ndarray:
        """Entry ``j`` of ``m + 1``: ``count(cdf < j / m)``."""
        if self._guide is None:
            m = 1 << min((self.n - 1).bit_length(), GUIDE_BITS_CAP)
            edges = np.arange(m + 1) / m
            table = np.searchsorted(self._cdf, edges, side="left")
            self._guide = table.astype(np.int32)
        return self._guide

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` ranks: ``np.searchsorted(cdf, rng.random(count),
        side="left")``, bit for bit (see the module docstring)."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        u = rng.random(count)
        cdf = self._cdf
        guide = self._guide_table()
        m = len(guide) - 1
        ranks = np.empty(count, dtype=np.intp)
        for start in range(0, count, SAMPLE_CHUNK):
            chunk = u[start : start + SAMPLE_CHUNK]
            bins = (chunk * m).astype(np.intp)
            rank = ranks[start : start + SAMPLE_CHUNK]
            rank[:] = guide[bins]
            width = guide[bins + 1] - rank
            passes = int(width.max(initial=0))
            if passes > MAX_SCAN:
                wide = width > MAX_SCAN
                rank[wide] = np.searchsorted(cdf, chunk[wide], side="left")
                passes = int(width[~wide].max(initial=0))
            # A rank stops at the first cdf point >= u: its answer.
            for _ in range(passes):
                rank += cdf[rank] < chunk
        return ranks

    def expected_unique(self, requests: int) -> float:
        """E[#distinct ranks drawn] after ``requests`` i.i.d. samples.

        Used to calibrate the trace generator against a target
        unlimited-cache hit rate (1 − unique/total).
        """
        if requests < 0:
            raise ValueError(f"requests must be >= 0, got {requests}")
        # E = sum_i (1 - (1 - p_i)^T); vectorized and numerically stable
        # (a rank with p_i = 1 takes log1p(-1) = -inf, and expm1(-inf) = -1).
        with np.errstate(divide="ignore"):
            logs = np.log1p(-self._pmf)
        return float(np.sum(-np.expm1(requests * logs)))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ZipfSampler(n={self.n}, exponent={self.exponent})"
