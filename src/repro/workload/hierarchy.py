"""Two-level (edge + core) cache hierarchy replay.

The paper evaluates one consumer-facing router; real deployments cache at
the edge *and* deeper in the network.  This module replays a trace
through an edge→core→origin chain of :class:`CachedRouter`-style levels,
so the delay-placement question (Section V-B footnote 6) and the scheme
comparison can be studied with in-network caching:

* a request first consults the edge cache; an edge miss (genuine or
  scheme-forced) consults the core; a core miss goes to the origin,
* returning content populates every level it traversed (leave-copy-
  everywhere, NDN's default),
* each level carries its own privacy scheme, so "edge-only delays" vs
  "delays everywhere" is a configuration, not new code.

Accounting is per level plus end-to-end: the *observable* hit level
determines the requester-visible latency class.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.schemes.base import CacheScheme, DecisionKind
from repro.core.schemes.marking import MarkingPolicy
from repro.core.schemes.no_privacy import NoPrivacyScheme
from repro.ndn.cs import ContentStore
from repro.ndn.name import Name
from repro.ndn.packets import Data
from repro.ndn.replacement import make_policy
from repro.workload.compiled import CompiledTrace
from repro.workload.fast_replay import _spans
from repro.workload.marking import MarkingRule, NoMarking
from repro.workload.trace import Trace


class LevelOutcome(enum.Enum):
    """What one cache level answered."""

    HIT = "hit"
    DISGUISED_HIT = "disguised_hit"
    MISS = "miss"


@dataclass
class LevelConfig:
    """One cache level of the hierarchy."""

    name: str
    cache_size: Optional[int] = None
    scheme: Optional[CacheScheme] = None
    policy: str = "lru"
    #: One-way delay (ms) from the level below to this level.
    link_delay: float = 5.0


@dataclass
class HierarchyStats:
    """Aggregate accounting of a hierarchy replay."""

    requests: int = 0
    #: Observable hits per level name (the requester saw a fast answer
    #: attributable to that level's distance).
    hits_by_level: Dict[str, int] = field(default_factory=dict)
    origin_fetches: int = 0
    private_requests: int = 0
    #: Mean requester-visible latency (ms), artificial delays included.
    latency_total: float = 0.0

    @property
    def mean_latency(self) -> float:
        """Average end-to-end response latency."""
        return self.latency_total / self.requests if self.requests else 0.0

    def hit_rate(self, level: str) -> float:
        """Observable hit rate attributed to ``level``."""
        if not self.requests:
            return 0.0
        return self.hits_by_level.get(level, 0) / self.requests

    @property
    def total_hit_rate(self) -> float:
        """Observable hit rate across all levels."""
        if not self.requests:
            return 0.0
        return sum(self.hits_by_level.values()) / self.requests


class _Level:
    """Internal: one cache level's state."""

    def __init__(self, config: LevelConfig, rng: np.random.Generator) -> None:
        self.config = config
        self.cs = ContentStore(
            capacity=config.cache_size,
            policy=make_policy(config.policy, rng),
        )
        self.scheme = config.scheme if config.scheme is not None else NoPrivacyScheme()
        self.marking = MarkingPolicy()
        self.cs.add_evict_listener(self.scheme.on_evict)

    def consult(self, name: Name, private: bool, now: float):
        """(outcome, artificial_delay) for a request reaching this level."""
        entry = self.cs.lookup_exact(name, now, touch=True)
        if entry is None:
            return LevelOutcome.MISS, 0.0
        effective = self.marking.effective_privacy(entry, private)
        decision = self.scheme.on_request(entry, effective.private, now)
        if decision.kind is DecisionKind.HIT:
            return LevelOutcome.HIT, 0.0
        if decision.kind is DecisionKind.DELAYED_HIT:
            return LevelOutcome.DISGUISED_HIT, decision.delay
        return LevelOutcome.MISS, 0.0

    def admit(self, name: Name, private: bool, fetch_delay: float, now: float) -> None:
        """Cache content flowing back through this level."""
        if name in self.cs:
            return
        data = Data(name=name, private=False)
        entry = self.cs.insert(data, now, fetch_delay=fetch_delay, private=private)
        self.marking.annotate_entry(entry, data)
        self.scheme.on_insert(entry, private=private, now=now)


class CacheHierarchy:
    """An edge→…→core chain of caches in front of an origin."""

    def __init__(
        self,
        levels: Sequence[LevelConfig],
        origin_delay: float = 40.0,
        seed: int = 0,
    ) -> None:
        """``levels[0]`` is the consumer-facing edge; ``origin_delay`` is
        the one-way delay from the deepest cache to the origin server."""
        if not levels:
            raise ValueError("hierarchy needs at least one level")
        rng_root = np.random.SeedSequence(seed)
        self.levels: List[_Level] = [
            _Level(config, np.random.Generator(np.random.PCG64(child)))
            for config, child in zip(levels, rng_root.spawn(len(levels)))
        ]
        self.origin_delay = origin_delay

    def request(self, name: Name, private: bool, now: float):
        """Process one request; returns (serving level name or 'origin',
        observable: bool, latency_ms)."""
        # Round-trip up to each level accumulates link delays.
        rtt_to_level = 0.0
        for index, level in enumerate(self.levels):
            rtt_to_level += 2.0 * level.config.link_delay
            outcome, artificial = level.consult(name, private, now)
            if outcome is LevelOutcome.HIT:
                self._backfill(index, name, private, rtt_to_level, now)
                return level.config.name, True, rtt_to_level
            if outcome is LevelOutcome.DISGUISED_HIT:
                self._backfill(index, name, private, rtt_to_level, now)
                return level.config.name, False, rtt_to_level + artificial
        # Origin fetch.
        total = rtt_to_level + 2.0 * self.origin_delay
        self._backfill(len(self.levels), name, private, total, now)
        return "origin", False, total

    def _backfill(
        self, served_index: int, name: Name, private: bool,
        total_latency: float, now: float,
    ) -> None:
        """Populate every level between the requester and the server.

        Each level records the fetch delay *it* observed: the round trip
        from itself to wherever the content came from.
        """
        rtt_below = 0.0
        for index in range(min(served_index, len(self.levels))):
            level = self.levels[index]
            rtt_below += 2.0 * level.config.link_delay
            level.admit(
                name, private, fetch_delay=total_latency - rtt_below, now=now
            )


def replay_hierarchy(
    trace: Union[Trace, CompiledTrace],
    levels: Sequence[LevelConfig],
    marking: Optional[MarkingRule] = None,
    origin_delay: float = 40.0,
    seed: int = 0,
) -> HierarchyStats:
    """Replay ``trace`` through a cache hierarchy; return the accounting.

    Reads the compiled columns: privacy flags come from the same
    per-shard pass as the fast replay kernel's, names from the compiled
    name table.
    """
    rule = marking if marking is not None else NoMarking()
    compiled = trace.compile() if isinstance(trace, Trace) else trace
    hierarchy = CacheHierarchy(levels, origin_delay=origin_delay, seed=seed)
    stats = HierarchyStats()
    names = compiled.names
    times = iter(compiled.times.tolist())
    for ids, flags in _spans(rule, compiled):
        for cid, private in zip(ids, flags):
            served_by, observable, latency = hierarchy.request(
                names[cid], private, next(times)
            )
            stats.requests += 1
            if private:
                stats.private_requests += 1
            stats.latency_total += latency
            if observable:
                stats.hits_by_level[served_by] = (
                    stats.hits_by_level.get(served_by, 0) + 1
                )
            if served_by == "origin":
                stats.origin_fetches += 1
    return stats
