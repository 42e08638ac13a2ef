"""Uniform-Random-Cache (Section VI).

Random-Cache with k_C ~ U(0, K).  Theorem VI.1: if cached content is
statistically independent, the scheme is (k, 0, 2k/K)-private — ε is
exactly 0 (uniform shifts are indistinguishable inside the overlap) and δ
shrinks as 1/K.  Utility follows Theorem VI.2.  ``SchemeSpec("uniform",
{"k": k, "delta": δ})`` builds the smallest K meeting a (k, 0, δ) target.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.privacy.distributions import UniformK
from repro.core.schemes.delay_policies import DelayPolicy
from repro.core.schemes.grouping import GroupingFunction
from repro.core.schemes.random_cache import RandomCacheScheme


class UniformRandomCache(RandomCacheScheme):
    """Random-Cache with the discrete uniform first-hit distribution."""

    name = "uniform-random-cache"

    def __init__(
        self,
        K: int,
        rng: Optional[np.random.Generator] = None,
        delay_policy: Optional[DelayPolicy] = None,
        grouping: Optional[GroupingFunction] = None,
    ) -> None:
        super().__init__(
            distribution=UniformK(K),
            rng=rng,
            delay_policy=delay_policy,
            grouping=grouping,
        )
        self.K = K
