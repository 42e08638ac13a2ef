"""Statistics helpers: PDF histograms, bootstrap intervals, CDFs.

These turn raw RTT samples into the per-class probability density
functions over a shared grid that the paper's Figure 3 plots.  The
distinguishing probability of the optimal observer is
:func:`repro.attacks.classifier.bayes_success`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class PdfPair:
    """Hit and miss PDFs on a common grid — one Figure 3 panel."""

    bin_edges: Tuple[float, ...]
    hit_density: Tuple[float, ...]
    miss_density: Tuple[float, ...]

    @property
    def bin_centers(self) -> List[float]:
        """Midpoints of the histogram bins."""
        edges = self.bin_edges
        return [(edges[i] + edges[i + 1]) / 2.0 for i in range(len(edges) - 1)]


def pdf_pair(
    hit_rtts: Sequence[float], miss_rtts: Sequence[float], bins: int = 40
) -> PdfPair:
    """Histogram both sample sets on a shared grid (density normalized)."""
    hits = np.asarray(hit_rtts, dtype=float)
    misses = np.asarray(miss_rtts, dtype=float)
    if hits.size == 0 or misses.size == 0:
        raise ValueError("need both hit and miss samples")
    lo = float(min(hits.min(), misses.min()))
    hi = float(max(hits.max(), misses.max()))
    if hi <= lo:
        hi = lo + 1e-9
    edges = np.linspace(lo, hi, bins + 1)
    hit_density, _ = np.histogram(hits, bins=edges, density=True)
    miss_density, _ = np.histogram(misses, bins=edges, density=True)
    return PdfPair(
        bin_edges=tuple(float(e) for e in edges),
        hit_density=tuple(float(d) for d in hit_density),
        miss_density=tuple(float(d) for d in miss_density),
    )


def bootstrap_mean_ci(
    samples: Sequence[float],
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> Tuple[float, float, float]:
    """(mean, ci_low, ci_high) via the percentile bootstrap."""
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise ValueError("no samples")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    rng = np.random.default_rng(seed)
    means = rng.choice(data, size=(resamples, data.size), replace=True).mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    return (
        float(data.mean()),
        float(np.quantile(means, alpha)),
        float(np.quantile(means, 1.0 - alpha)),
    )


def empirical_cdf(samples: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """(sorted values, cumulative probabilities) of the empirical CDF."""
    data = np.sort(np.asarray(samples, dtype=float))
    if data.size == 0:
        raise ValueError("no samples")
    probs = np.arange(1, data.size + 1) / data.size
    return data, probs


def separation_score(
    hit_rtts: Sequence[float], miss_rtts: Sequence[float]
) -> float:
    """Cohen's-d-style gap: (mean_miss − mean_hit) / pooled std."""
    hits = np.asarray(hit_rtts, dtype=float)
    misses = np.asarray(miss_rtts, dtype=float)
    if hits.size < 2 or misses.size < 2:
        raise ValueError("need at least 2 samples per class")
    pooled = np.sqrt((hits.var(ddof=1) + misses.var(ddof=1)) / 2.0)
    if pooled == 0:
        return float("inf") if misses.mean() != hits.mean() else 0.0
    return float((misses.mean() - hits.mean()) / pooled)
