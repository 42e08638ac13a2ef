"""The Content Store (CS): an NDN router's in-network cache.

The CS is the object the paper's attacks probe and its countermeasures
guard.  It supports exact-name and longest-prefix-match lookup (the paper's
footnote-2 matching rule), pluggable replacement (LRU by default, per
Section VII), capacity limits including "unlimited" (the Inf point of
Figure 5), and per-entry metadata the countermeasures need:

* ``fetch_delay`` — the original interest-in→content-out delay γ_C used by
  the content-specific delay policy (Section V-B),
* ``private`` — the entry's effective privacy marking, combining producer
  and consumer marking under the trigger rule (see
  :mod:`repro.core.schemes.marking`),
* ``scheme_state`` — scratch space for cache-privacy schemes (the per-entry
  counters c_C and thresholds k_C of Algorithm 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.ndn.errors import CacheError
from repro.ndn.name import Name
from repro.ndn.packets import Data
from repro.ndn.replacement import LruPolicy, ReplacementPolicy


@dataclass
class CacheEntry:
    """One cached content object plus countermeasure metadata."""

    data: Data
    insert_time: float
    last_access: float
    fetch_delay: float = 0.0
    private: bool = False
    access_count: int = 0
    scheme_state: Dict[str, Any] = field(default_factory=dict)

    @property
    def name(self) -> Name:
        """The cached object's full name."""
        return self.data.name

    def is_stale(self, now: float) -> bool:
        """True once the object's advisory freshness window has elapsed."""
        return (
            self.data.freshness is not None
            and now - self.insert_time > self.data.freshness
        )


class ContentStore:
    """A capacity-bounded content cache with pluggable replacement.

    ``capacity=None`` models the unlimited cache used as the paper's
    baseline.  Eviction callbacks let privacy schemes drop their per-entry
    state when content leaves the cache.
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        policy: Optional[ReplacementPolicy] = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise CacheError(f"cache capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self.policy = policy if policy is not None else LruPolicy()
        self._entries: Dict[Name, CacheEntry] = {}
        # Prefix index: every strict prefix of a cached name -> cached names
        # under it, kept sorted lazily at lookup time for determinism.
        self._prefix_index: Dict[Name, set] = {}
        self._evict_listeners: List[Callable[[CacheEntry], None]] = []
        self.insertions = 0
        self.evictions = 0
        self.stale_drops = 0
        #: Every entry that left the cache, for any reason (capacity
        #: eviction, stale drop, explicit removal, clear).  The ledger the
        #: invariant checker balances: insertions == removed + len(cs).
        self.removed = 0

    # ------------------------------------------------------------------
    # Listeners
    # ------------------------------------------------------------------
    def add_evict_listener(self, callback: Callable[[CacheEntry], None]) -> None:
        """Register a callback invoked with each evicted entry."""
        self._evict_listeners.append(callback)

    def remove_evict_listener(self, callback: Callable[[CacheEntry], None]) -> None:
        """Unregister a listener (no-op if it was never registered).

        Used by the deployment daemon's live scheme swap: the outgoing
        scheme's ``on_evict`` hook must stop observing the cache before
        the replacement's hook is installed.
        """
        try:
            self._evict_listeners.remove(callback)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(
        self,
        data: Data,
        now: float,
        fetch_delay: float = 0.0,
        private: Optional[bool] = None,
    ) -> CacheEntry:
        """Cache ``data``, evicting per policy if at capacity.

        ``private=None`` derives the marking from the content object itself
        (producer bit or reserved name component).  Re-inserting an existing
        name refreshes the entry in place.
        """
        name = data.name
        if name in self._entries:
            # Refresh in place: no ledger movement (insertions stays
            # put), matching a removal-free refresh.  Together with the
            # fact that a caching strategy's declined admission never
            # reaches insert() at all, the ledger stays balanced under
            # any (strategy, policy) combination.
            entry = self._entries[name]
            entry.data = data
            entry.last_access = now
            self.policy.on_access(name)
            return entry
        if self.capacity is not None:
            while len(self._entries) >= self.capacity:
                self._evict(self.policy.choose_victim(), now)
        entry = CacheEntry(
            data=data,
            insert_time=now,
            last_access=now,
            fetch_delay=fetch_delay,
            private=data.effectively_private if private is None else private,
        )
        self._entries[name] = entry
        self.policy.on_insert(name)
        index = self._prefix_index
        prefixes = name.prefixes()
        next(prefixes)  # the name itself (longest first)
        for prefix in prefixes:
            bucket = index.get(prefix)
            if bucket is None:
                index[prefix] = {name}
            else:
                bucket.add(name)
        self.insertions += 1
        return entry

    def remove(self, name: Name) -> Optional[CacheEntry]:
        """Remove ``name`` from the cache; returns the entry or None."""
        entry = self._entries.pop(name, None)
        if entry is None:
            return None
        self.removed += 1
        self.policy.on_remove(name)
        index = self._prefix_index
        prefixes = name.prefixes()
        next(prefixes)  # the name itself (longest first)
        for prefix in prefixes:
            bucket = index.get(prefix)
            if bucket is not None:
                bucket.discard(name)
                if not bucket:
                    del index[prefix]
        return entry

    def _evict(self, name: Name, now: float) -> None:
        entry = self.remove(name)
        if entry is None:
            raise CacheError(f"policy nominated uncached victim {name}")
        if entry.is_stale(now):
            # The victim had already expired: its removal is a stale drop
            # that capacity pressure merely surfaced, not an eviction of
            # live content.  Keeping the tallies mutually exclusive lets
            # eviction counts measure true cache contention.
            self.stale_drops += 1
        else:
            self.evictions += 1
        for listener in self._evict_listeners:
            listener(entry)

    def _drop_stale(self, name: Name) -> None:
        # Freshness expiry: the entry leaves the cache, so schemes must
        # release their per-entry state (listeners fire), but it is not a
        # capacity eviction (tallied separately as stale_drops).
        entry = self.remove(name)
        if entry is None:
            return
        self.stale_drops += 1
        for listener in self._evict_listeners:
            listener(entry)

    def purge(self, name: Name) -> Optional["CacheEntry"]:
        """Administrative removal (defense quarantine): drop ``name`` and
        fire eviction listeners so schemes release per-entry state.

        Unlike :meth:`_evict`/:meth:`_drop_stale` the removal is tallied
        neither as a capacity eviction nor a stale drop — the caller
        accounts for it (e.g. the ``cache_quarantined`` counter).  Ledger
        D stays balanced through ``removed``.  Returns the entry, or None
        if the name was not cached.
        """
        entry = self.remove(name)
        if entry is None:
            return None
        for listener in self._evict_listeners:
            listener(entry)
        return entry

    def clear(self) -> None:
        """Empty the cache without firing eviction listeners."""
        for name in list(self._entries):
            self.remove(name)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup_exact(self, name: Name, now: float, touch: bool = True) -> Optional[CacheEntry]:
        """Exact-name lookup.  ``touch`` refreshes recency and counters.

        Per Section VII, the entry is refreshed even when the eventual
        response is delayed or disguised as a miss — refresh reflects that
        the content is in the cache and was requested, not what the
        requester observed.
        """
        entry = self._entries.get(name)
        if entry is None:
            return None
        if entry.is_stale(now):
            self._drop_stale(name)
            return None
        if touch:
            self._touch(entry, now)
        return entry

    def lookup(self, name: Name, now: float, touch: bool = True) -> Optional[CacheEntry]:
        """Prefix-match lookup (the paper's footnote-2 rule).

        Returns the exact entry if present; otherwise the lexicographically
        smallest cached name under the prefix (deterministic stand-in for
        "any match").  Entries flagged ``exact_match_only`` — unpredictable
        rand-component names, footnote 5 — are never returned for strict
        prefixes.
        """
        entry = self._entries.get(name)
        if entry is not None:
            if entry.is_stale(now):
                self._drop_stale(name)
            else:
                if touch:
                    self._touch(entry, now)
                return entry
        bucket = self._prefix_index.get(name)
        if not bucket:
            return None
        for candidate in sorted(bucket):
            candidate_entry = self._entries[candidate]
            if candidate_entry.data.exact_match_only:
                continue
            if candidate_entry.is_stale(now):
                self._drop_stale(candidate)
                continue
            if touch:
                self._touch(candidate_entry, now)
            return candidate_entry
        return None

    def _touch(self, entry: CacheEntry, now: float) -> None:
        entry.last_access = now
        entry.access_count += 1
        self.policy.on_access(entry.name)

    def touch(self, name: Name, now: float) -> None:
        """Refresh recency/counters for a cached name (no-op if absent).

        Used by callers that look up with ``touch=False`` and decide
        afterwards whether the access should refresh the entry (the
        delayed-hit-refresh ablation).
        """
        entry = self._entries.get(name)
        if entry is not None:
            self._touch(entry, now)

    def __contains__(self, name: Name) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[CacheEntry]:
        return iter(self._entries.values())

    @property
    def ledger_balanced(self) -> bool:
        """Law D of the invariant checker: every insertion is still
        cached or accounted for in :attr:`removed`."""
        return self.insertions == self.removed + len(self._entries)

    @property
    def names(self) -> List[Name]:
        """All cached names (sorted, for deterministic iteration)."""
        return sorted(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        cap = self.capacity if self.capacity is not None else "inf"
        return f"ContentStore(size={len(self._entries)}, capacity={cap})"
