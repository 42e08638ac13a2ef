"""Exponential-Random-Cache (Section VI).

Random-Cache with k_C ~ G̃(α, 0, K−1), the truncated geometric.  Skewing
probability mass toward small k_C yields fewer disguised misses (better
utility) at the cost of a nonzero ε.  Theorem VI.3: the scheme is
(k, −k·ln α, (1 − α^k + α^(K−k) − α^K) / (1 − α^K))-private.

``K=None`` gives the untruncated geometric — the K → ∞ limit where
δ = 1 − α^k, the smallest δ attainable for a given α, used on the
ε = −ln(1−δ) boundary of Figure 4(b).  ``SchemeSpec("exponential", {"k":
k, "epsilon": ε, "delta": δ})`` builds the instance meeting that target.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.privacy.distributions import TruncatedGeometric
from repro.core.schemes.delay_policies import DelayPolicy
from repro.core.schemes.grouping import GroupingFunction
from repro.core.schemes.random_cache import RandomCacheScheme


class ExponentialRandomCache(RandomCacheScheme):
    """Random-Cache with the truncated geometric first-hit distribution."""

    name = "exponential-random-cache"

    def __init__(
        self,
        alpha: float,
        K: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        delay_policy: Optional[DelayPolicy] = None,
        grouping: Optional[GroupingFunction] = None,
    ) -> None:
        super().__init__(
            distribution=TruncatedGeometric(alpha, K),
            rng=rng,
            delay_policy=delay_policy,
            grouping=grouping,
        )
        self.alpha = alpha
        self.K = K
