"""The Pending Interest Table (PIT).

Per Section II: when a router receives an interest for name X with no
matching PIT entry, it forwards the interest and records the name and the
arrival face.  Subsequent interests for X are *collapsed* — only the arrival
face is added.  When content returns, the router forwards it out on every
recorded face and flushes the entry.

Entries expire after the interest lifetime; expiry is driven by the caller
(the forwarder schedules timers) so the PIT itself stays engine-agnostic.

A real router's PIT is a finite resource and the classic target of
interest-flooding attacks, so the table supports an optional ``capacity``
with a pluggable overflow policy:

* ``"drop-new"`` — an interest arriving at a full table is rejected
  (:meth:`insert_or_collapse` returns ``(None, False)``); the caller
  decides whether to Nack it downstream,
* ``"evict-oldest-expiry"`` — the entry closest to expiring is preempted
  to make room (eviction listeners fire so the owner can cancel timers
  and Nack the preempted entry's faces).

Collapsed interests never consume a new slot — a full table still
aggregates cheaply, which is exactly why collapsing is the first line of
defense against duplicate floods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.ndn.errors import PitError
from repro.ndn.name import Name
from repro.ndn.packets import Interest

#: Valid overflow policies for a capacity-bounded table.
OVERFLOW_POLICIES = ("drop-new", "evict-oldest-expiry")


@dataclass
class PitEntry:
    """State for one pending name."""

    name: Name
    expiry: float
    faces: List[object] = field(default_factory=list)
    nonces: Set[int] = field(default_factory=set)
    #: True if any collapsed interest carried the consumer privacy bit.
    any_private: bool = False
    #: True only if *every* collapsed interest carried the privacy bit.
    all_private: bool = True
    #: Time the first interest arrived (for delay accounting).
    first_arrival: float = 0.0
    #: Expiry timer event (cancelled when the entry is satisfied).
    timer: object = None

    def add_face(self, face: object) -> None:
        """Record an additional arrival face (idempotent)."""
        if face not in self.faces:
            self.faces.append(face)


class Pit:
    """Exact-name pending-interest table with interest collapsing.

    ``capacity=None`` (the default) models the unbounded table the paper
    assumes; a bounded table applies ``overflow`` when a *new* entry
    would exceed it.
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        overflow: str = "drop-new",
    ) -> None:
        if capacity is not None and capacity < 1:
            raise PitError(f"PIT capacity must be >= 1 or None, got {capacity}")
        if overflow not in OVERFLOW_POLICIES:
            raise PitError(
                f"unknown overflow policy {overflow!r}; "
                f"choose from {OVERFLOW_POLICIES}"
            )
        self.capacity = capacity
        self.overflow = overflow
        self._entries: Dict[Name, PitEntry] = {}
        self._evict_listeners: List[Callable[[PitEntry], None]] = []
        self.collapsed = 0
        self.expired = 0
        #: New interests rejected by the ``drop-new`` overflow policy.
        self.overflow_dropped = 0
        #: Entries preempted by the ``evict-oldest-expiry`` policy.
        self.overflow_evicted = 0
        #: New entries accepted (collapses and rejected interests excluded).
        self.inserted = 0
        #: High-water mark of the table size.
        self.peak_size = 0

    def add_evict_listener(self, callback: Callable[[PitEntry], None]) -> None:
        """Register a callback invoked with each overflow-preempted entry."""
        self._evict_listeners.append(callback)

    def lookup(self, name: Name) -> Optional[PitEntry]:
        """Return the entry for ``name`` or None."""
        return self._entries.get(name)

    def insert_or_collapse(
        self, interest: Interest, face: object, now: float
    ) -> Tuple[Optional[PitEntry], bool]:
        """Record an arriving interest.

        Returns ``(entry, is_new)``.  ``is_new`` is True when the interest
        created a fresh entry (and therefore must be forwarded upstream);
        False when it was collapsed into an existing one.  A bounded table
        whose ``drop-new`` policy rejects the interest returns
        ``(None, False)`` — the interest consumed no slot and must not be
        forwarded.

        A duplicate nonce on an existing entry is still collapsed (the face
        is recorded) — loop suppression is the forwarder's concern.
        Collapsed interests never consume a new slot, so a full table
        keeps aggregating.
        """
        entry = self._entries.get(interest.name)
        if entry is not None:
            entry.add_face(face)
            entry.nonces.add(interest.nonce)
            entry.any_private = entry.any_private or interest.private
            entry.all_private = entry.all_private and interest.private
            # A later interest extends the entry's life.
            entry.expiry = max(entry.expiry, now + interest.lifetime)
            self.collapsed += 1
            return entry, False
        if self.capacity is not None and len(self._entries) >= self.capacity:
            if self.overflow == "drop-new":
                self.overflow_dropped += 1
                return None, False
            self._preempt_oldest_expiry()
        entry = PitEntry(
            name=interest.name,
            expiry=now + interest.lifetime,
            faces=[face],
            nonces={interest.nonce},
            any_private=interest.private,
            all_private=interest.private,
            first_arrival=now,
        )
        self._entries[interest.name] = entry
        self.inserted += 1
        if len(self._entries) > self.peak_size:
            self.peak_size = len(self._entries)
        return entry, True

    def _preempt_oldest_expiry(self) -> None:
        """Evict the entry closest to expiring (ties: oldest insertion)."""
        victim_name = min(self._entries, key=lambda n: self._entries[n].expiry)
        victim = self._entries.pop(victim_name)
        self.overflow_evicted += 1
        for listener in self._evict_listeners:
            listener(victim)

    def satisfy(self, name: Name) -> Optional[PitEntry]:
        """Pop and return the entry matched by returning content.

        Content named X satisfies a pending interest for any prefix of X;
        the longest pending prefix wins (most specific interest).
        """
        entries = self._entries
        for prefix in name.prefixes():  # longest first, cached per name
            if prefix in entries:
                return entries.pop(prefix)
        return None

    def expire(self, name: Name, now: float) -> Optional[PitEntry]:
        """Remove ``name`` if its entry has expired; return it if removed."""
        entry = self._entries.get(name)
        if entry is None:
            return None
        if entry.expiry > now:
            return None
        self.expired += 1
        return self._entries.pop(name)

    def remove(self, name: Name) -> Optional[PitEntry]:
        """Unconditionally remove and return the entry for ``name``."""
        return self._entries.pop(name, None)

    def has_seen_nonce(self, name: Name, nonce: int) -> bool:
        """True if ``nonce`` was already recorded for ``name`` (loop check)."""
        entry = self._entries.get(name)
        return entry is not None and nonce in entry.nonces

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: Name) -> bool:
        return name in self._entries

    @property
    def names(self) -> List[Name]:
        """All pending names (sorted)."""
        return sorted(self._entries)
