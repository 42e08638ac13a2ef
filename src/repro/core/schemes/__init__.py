"""Cache-privacy countermeasures (the paper's core contribution).

Scheme hierarchy::

    CacheScheme (base)
    ├── NoPrivacyScheme          vanilla NDN caching (baseline)
    ├── AlwaysDelayScheme        perfect privacy via artificial delay
    └── RandomCacheScheme        Algorithm 1, generic K distribution
        ├── NaiveThresholdScheme     degenerate K (non-private strawman)
        ├── UniformRandomCache       K ~ U(0, K)
        └── ExponentialRandomCache   K ~ truncated geometric

A scheme is built by name only through :class:`SchemeSpec`
(:mod:`~repro.core.schemes.registry`), which also gives its (k, ε, δ).

Supporting pieces: delay policies (constant / content-specific / dynamic),
grouping functions for correlated content, and the privacy-marking rules.
"""

from repro.core.schemes.always_delay import AlwaysDelayScheme
from repro.core.schemes.base import CacheScheme, Decision, DecisionKind
from repro.core.schemes.delay_policies import (
    ConstantDelay,
    ContentSpecificDelay,
    DelayPolicy,
    DynamicDelay,
)
from repro.core.schemes.exponential import ExponentialRandomCache
from repro.core.schemes.grouping import (
    CONTENT_ID_PREFIX,
    ContentIdGrouping,
    GroupingFunction,
    NamespaceGrouping,
    NoGrouping,
)
from repro.core.schemes.marking import MarkingDecision, MarkingPolicy
from repro.core.schemes.naive_threshold import NaiveThresholdScheme
from repro.core.schemes.no_privacy import NoPrivacyScheme
from repro.core.schemes.random_cache import RandomCacheScheme
from repro.core.schemes.registry import SchemeError, SchemeSpec, describe
from repro.core.schemes.uniform import UniformRandomCache

__all__ = [
    "CacheScheme",
    "Decision",
    "DecisionKind",
    "NoPrivacyScheme",
    "AlwaysDelayScheme",
    "RandomCacheScheme",
    "NaiveThresholdScheme",
    "UniformRandomCache",
    "ExponentialRandomCache",
    "SchemeSpec",
    "SchemeError",
    "describe",
    "DelayPolicy",
    "ConstantDelay",
    "ContentSpecificDelay",
    "DynamicDelay",
    "GroupingFunction",
    "NoGrouping",
    "NamespaceGrouping",
    "ContentIdGrouping",
    "CONTENT_ID_PREFIX",
    "MarkingPolicy",
    "MarkingDecision",
]
