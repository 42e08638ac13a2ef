"""Trace replay through a cached router (the Figure 5 engine).

Replays a request trace against a single consumer-facing router — Content
Store, replacement policy, privacy scheme, marking rules — without the
packet-level network, so multi-hundred-thousand-request traces run in
seconds.  The accounting matches Section VII:

* a **cache hit** is a request answered as an *observable* hit (the
  scheme's HIT decision on cached content),
* disguised hits (artificial delay) and forced misses count against the
  hit rate, exactly as the paper tallies them,
* the cache entry is refreshed on every request for cached content, "even
  if the response is delayed",
* the router caches all content; eviction is LRU by default.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

import numpy as np

from repro.core.schemes.base import CacheScheme, DecisionKind
from repro.core.schemes.marking import MarkingPolicy
from repro.core.schemes.no_privacy import NoPrivacyScheme
from repro.ndn.cs import ContentStore
from repro.ndn.name import Name
from repro.ndn.packets import Data
from repro.ndn.replacement import make_policy
from repro.workload.marking import MarkingRule, NoMarking
from repro.workload.streaming import Request


class RequestOutcome(enum.Enum):
    """What the requester observed."""

    HIT = "hit"
    DISGUISED_HIT = "disguised_hit"
    MISS = "miss"


@dataclass
class ReplayStats:
    """Aggregate accounting of one replay run."""

    requests: int = 0
    hits: int = 0
    disguised_hits: int = 0
    misses: int = 0
    private_requests: int = 0
    private_hits: int = 0
    evictions: int = 0
    #: Sum of artificial delays paid by disguised hits (ms).
    artificial_delay_total: float = 0.0

    @property
    def hit_rate(self) -> float:
        """Observable cache-hit rate — the Figure 5 y-axis."""
        return self.hits / self.requests if self.requests else 0.0

    @property
    def bandwidth_hit_rate(self) -> float:
        """Hits + disguised hits over requests: upstream traffic saved.

        Delay-based schemes preserve bandwidth even while hiding hits —
        the paper's argument for them over cache-disabling.
        """
        if not self.requests:
            return 0.0
        return (self.hits + self.disguised_hits) / self.requests

    @property
    def private_hit_rate(self) -> float:
        """Observable hit rate restricted to private requests."""
        if not self.private_requests:
            return 0.0
        return self.private_hits / self.private_requests


class CachedRouter:
    """A router model for trace replay: CS + scheme + marking, no network."""

    def __init__(
        self,
        cache_size: Optional[int] = None,
        scheme: Optional[CacheScheme] = None,
        policy: str = "lru",
        fetch_delay: float = 100.0,
        rng: Optional[np.random.Generator] = None,
        refresh_delayed_hits: bool = True,
    ) -> None:
        """``refresh_delayed_hits=True`` is the paper's behavior (the
        entry becomes fresh even if the response is delayed); False is
        the ablation where only observable hits refresh recency."""
        self.cs = ContentStore(
            capacity=cache_size,
            policy=make_policy(policy, rng if rng is not None else np.random.default_rng(0)),
        )
        self.scheme = scheme if scheme is not None else NoPrivacyScheme()
        self.marking = MarkingPolicy()
        self.fetch_delay = fetch_delay
        self.refresh_delayed_hits = refresh_delayed_hits
        self.cs.add_evict_listener(self.scheme.on_evict)

    def request(self, name: Name, private: bool, now: float) -> RequestOutcome:
        """Process one request; returns what the requester observed."""
        entry = self.cs.lookup_exact(name, now, touch=False)
        if entry is None:
            data = Data(name=name, private=False)
            entry = self.cs.insert(
                data, now, fetch_delay=self.fetch_delay, private=private
            )
            self.marking.annotate_entry(entry, data)
            self.scheme.on_insert(entry, private=private, now=now)
            return RequestOutcome.MISS
        decision_privacy = self.marking.effective_privacy(entry, private)
        decision = self.scheme.on_request(entry, decision_privacy.private, now)
        if decision.kind is DecisionKind.HIT or self.refresh_delayed_hits:
            self.cs.touch(name, now)
        if decision.kind is DecisionKind.HIT:
            return RequestOutcome.HIT
        if decision.kind is DecisionKind.DELAYED_HIT:
            return RequestOutcome.DISGUISED_HIT
        return RequestOutcome.MISS


def replay(
    trace: Iterable[Request],
    scheme: Optional[CacheScheme] = None,
    marking: Optional[MarkingRule] = None,
    cache_size: Optional[int] = None,
    policy: str = "lru",
    fetch_delay: float = 100.0,
    seed: int = 0,
    refresh_delayed_hits: bool = True,
) -> ReplayStats:
    """Replay ``trace`` through one router; return the accounting.

    ``marking`` decides which requests carry the consumer privacy bit
    (:class:`~repro.workload.marking.ContentMarking` reproduces the
    paper's random private/non-private division).
    """
    rule = marking if marking is not None else NoMarking()
    router = CachedRouter(
        cache_size=cache_size,
        scheme=scheme,
        policy=policy,
        fetch_delay=fetch_delay,
        rng=np.random.default_rng(seed),
        refresh_delayed_hits=refresh_delayed_hits,
    )
    stats = ReplayStats()
    # Rules that ignore the per-name occurrence index (NoMarking, the
    # per-content division) make the request_index dict pure overhead in
    # the default benchmark configuration — skip it for them.
    track_index = rule.uses_request_index
    request_index: Dict[Name, int] = {}
    for request in trace:
        if track_index:
            index = request_index.get(request.name, 0)
            request_index[request.name] = index + 1
        else:
            index = 0
        private = rule.is_private(request.name, index)
        outcome = router.request(request.name, private, request.time)
        stats.requests += 1
        if private:
            stats.private_requests += 1
        if outcome is RequestOutcome.HIT:
            stats.hits += 1
            if private:
                stats.private_hits += 1
        elif outcome is RequestOutcome.DISGUISED_HIT:
            stats.disguised_hits += 1
            stats.artificial_delay_total += fetch_delay
        else:
            stats.misses += 1
    stats.evictions = router.cs.evictions
    return stats
