"""The Q_S query oracle (Section IV's system model), solved exactly.

The adversary interacts with the router only through the probabilistic
query algorithm Q_S: submit a name, observe hit (1) or miss (0); each query
advances the router state S' (C) = S(C) + 1.

For Random-Cache schemes the adversary's best strategy is to probe the same
content repeatedly (footnote 8), so the observable is the *output sequence*
of t consecutive probes.  Because Algorithm 1 answers misses up to a
threshold and hits afterwards, every reachable sequence is a miss-prefix
followed by hits, fully described by the prefix length m in {0, ..., t}.

This module computes the exact distribution of m under

* state S0 — the content was never requested (S(C) = 0), and
* state S1 — the content was requested x in [1, k] times before probing,

from which :func:`oracle_guarantee` derives the tight (ε, δ) via
:mod:`repro.core.privacy.indistinguishability`, checkable against the
closed-form Theorems VI.1/VI.3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.privacy.distributions import FirstHitDistribution
from repro.core.privacy.guarantees import PrivacyGuarantee
from repro.core.privacy.indistinguishability import Distribution, min_delta, min_epsilon


def prefix_length_distribution(
    distribution: FirstHitDistribution, prior_requests: int, t: int
) -> Distribution:
    """Distribution of the miss-prefix length over t probes.

    ``prior_requests`` = x is the number of requests already made for the
    content before the adversary starts probing (x = 0 is state S0).

    Derivation: after x >= 1 requests, Algorithm 1's counter is c = x − 1,
    and the j-th probe is a miss iff x − 1 + j <= k_C.  For x = 0 the first
    probe is the always-miss fetch, then the count proceeds as above, so
    both cases reduce to  m = clamp(k_C + 1 − x, 0, t)  with x = 0 allowed.
    """
    if prior_requests < 0:
        raise ValueError(f"prior_requests must be >= 0, got {prior_requests}")
    if t < 1:
        raise ValueError(f"probe count t must be >= 1, got {t}")
    x = prior_requests
    dist: Dict[int, float] = {}
    # m = 0  <=>  k <= x - 1  (only possible when x >= 1).
    if x >= 1:
        p0 = distribution.cdf(x - 1)
        if p0 > 0:
            dist[0] = p0
    # m = j in (0, t)  <=>  k = x + j - 1.
    for j in range(1, t):
        p = distribution.pmf(x + j - 1)
        if p > 0:
            dist[j] = p
    # m = t  <=>  k >= x + t - 1.
    pt = 1.0 - distribution.cdf(x + t - 2)
    if pt > 1e-15:
        dist[t] = pt
    return dist


@dataclass(frozen=True)
class OracleAnalysis:
    """Tight (ε, δ) extracted from exact probe-sequence distributions."""

    k: int
    t: int
    epsilon: float
    delta_at_epsilon: float
    delta_at_zero: float

    def as_guarantee(self) -> PrivacyGuarantee:
        """The (k, ε, δ) statement the oracle analysis certifies."""
        return PrivacyGuarantee(self.k, self.epsilon, self.delta_at_epsilon)


def oracle_guarantee(
    distribution: FirstHitDistribution,
    k: int,
    t: int,
    epsilon: float,
) -> OracleAnalysis:
    """Worst-case (over x in [1, k]) tight δ at the given ε and probe budget t.

    The paper's theorems bound the supremum over all t; taking
    t >= domain_size + k makes the finite-t computation achieve it (every
    distinguishing outcome has occurred by then).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    d0 = prefix_length_distribution(distribution, 0, t)
    worst_delta = 0.0
    worst_delta0 = 0.0
    for x in range(1, k + 1):
        dx = prefix_length_distribution(distribution, x, t)
        worst_delta = max(worst_delta, min_delta(d0, dx, epsilon).delta)
        worst_delta0 = max(worst_delta0, min_delta(d0, dx, 0.0).delta)
    return OracleAnalysis(
        k=k,
        t=t,
        epsilon=epsilon,
        delta_at_epsilon=worst_delta,
        delta_at_zero=worst_delta0,
    )


def oracle_min_epsilon(
    distribution: FirstHitDistribution, k: int, t: int, delta: float
) -> float:
    """Worst-case (over x in [1, k]) minimal ε for a δ budget."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    d0 = prefix_length_distribution(distribution, 0, t)
    return max(
        min_epsilon(d0, prefix_length_distribution(distribution, x, t), delta)
        for x in range(1, k + 1)
    )
