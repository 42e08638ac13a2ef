"""Cache replacement policies for the Content Store.

The paper's evaluation uses LRU ("A router caches all content and removes
elements from its cache (when full) according to the LRU policy",
Section VII).  LFU, FIFO and Random are provided for the replacement-policy
ablation bench.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from functools import cached_property
from typing import Dict, List, Optional

import numpy as np

from repro.ndn.errors import CacheError
from repro.ndn.name import Name
from repro.sim.rng import Stream, as_generator


class ReplacementPolicy(abc.ABC):
    """Tracks cached names and nominates eviction victims."""

    @abc.abstractmethod
    def on_insert(self, name: Name) -> None:
        """Record that ``name`` entered the cache."""

    @abc.abstractmethod
    def on_access(self, name: Name) -> None:
        """Record a (possibly delayed) hit on ``name``."""

    @abc.abstractmethod
    def on_remove(self, name: Name) -> None:
        """Record that ``name`` left the cache."""

    @abc.abstractmethod
    def choose_victim(self) -> Name:
        """Return the name to evict next.  Raises if the policy is empty."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of tracked names."""


class LruPolicy(ReplacementPolicy):
    """Least-recently-used: accesses refresh recency."""

    def __init__(self) -> None:
        self._order: "OrderedDict[Name, None]" = OrderedDict()

    def on_insert(self, name: Name) -> None:
        self._order[name] = None
        self._order.move_to_end(name)

    def on_access(self, name: Name) -> None:
        if name not in self._order:
            raise CacheError(f"LRU access to untracked name {name}")
        self._order.move_to_end(name)

    def on_remove(self, name: Name) -> None:
        self._order.pop(name, None)

    def choose_victim(self) -> Name:
        if not self._order:
            raise CacheError("LRU policy is empty; no victim")
        return next(iter(self._order))

    def __len__(self) -> int:
        return len(self._order)


class FifoPolicy(ReplacementPolicy):
    """First-in-first-out: accesses do not refresh position."""

    def __init__(self) -> None:
        self._order: "OrderedDict[Name, None]" = OrderedDict()

    def on_insert(self, name: Name) -> None:
        # Re-insertion moves to the back (it is a new arrival).
        self._order.pop(name, None)
        self._order[name] = None

    def on_access(self, name: Name) -> None:
        if name not in self._order:
            raise CacheError(f"FIFO access to untracked name {name}")

    def on_remove(self, name: Name) -> None:
        self._order.pop(name, None)

    def choose_victim(self) -> Name:
        if not self._order:
            raise CacheError("FIFO policy is empty; no victim")
        return next(iter(self._order))

    def __len__(self) -> int:
        return len(self._order)


class LfuPolicy(ReplacementPolicy):
    """Least-frequently-used with FIFO tie-breaking.

    O(1) operations via frequency buckets: each frequency maps to an
    insertion-ordered dict of names, and ``_min_freq`` tracks the lowest
    populated bucket (it can only decrease on insert, so the occasional
    upward scan amortizes out).
    """

    def __init__(self) -> None:
        self._freq: Dict[Name, int] = {}
        self._buckets: Dict[int, "OrderedDict[Name, None]"] = {}
        self._min_freq = 0

    def _bucket(self, freq: int) -> "OrderedDict[Name, None]":
        bucket = self._buckets.get(freq)
        if bucket is None:
            bucket = OrderedDict()
            self._buckets[freq] = bucket
        return bucket

    def on_insert(self, name: Name) -> None:
        self._freq[name] = 1
        self._bucket(1)[name] = None
        self._min_freq = 1

    def on_access(self, name: Name) -> None:
        freq = self._freq.get(name)
        if freq is None:
            raise CacheError(f"LFU access to untracked name {name}")
        bucket = self._buckets[freq]
        del bucket[name]
        if not bucket:
            del self._buckets[freq]
            if self._min_freq == freq:
                self._min_freq = freq + 1
        self._freq[name] = freq + 1
        self._bucket(freq + 1)[name] = None

    def on_remove(self, name: Name) -> None:
        freq = self._freq.pop(name, None)
        if freq is None:
            return
        bucket = self._buckets[freq]
        del bucket[name]
        if not bucket:
            del self._buckets[freq]

    def choose_victim(self) -> Name:
        if not self._freq:
            raise CacheError("LFU policy is empty; no victim")
        while self._min_freq not in self._buckets:
            self._min_freq += 1
        return next(iter(self._buckets[self._min_freq]))

    def __len__(self) -> int:
        return len(self._freq)


class RandomPolicy(ReplacementPolicy):
    """Uniform-random eviction, driven by a seeded generator.

    ``rng`` may be a :class:`~repro.sim.rng.LazyStream`, resolved at the
    first victim draw.
    """

    def __init__(self, rng: Optional[Stream] = None) -> None:
        self._stream = rng if rng is not None else np.random.default_rng(0)
        self._names: list[Name] = []
        self._index: Dict[Name, int] = {}

    @cached_property
    def _rng(self) -> np.random.Generator:
        return as_generator(self._stream)

    def on_insert(self, name: Name) -> None:
        if name in self._index:
            return
        self._index[name] = len(self._names)
        self._names.append(name)

    def on_access(self, name: Name) -> None:
        if name not in self._index:
            raise CacheError(f"Random-policy access to untracked name {name}")

    def on_remove(self, name: Name) -> None:
        idx = self._index.pop(name, None)
        if idx is None:
            return
        last = self._names.pop()
        if last is not name:
            self._names[idx] = last
            self._index[last] = idx

    def choose_victim(self) -> Name:
        if not self._names:
            raise CacheError("Random policy is empty; no victim")
        return self._names[int(self._rng.integers(len(self._names)))]

    def __len__(self) -> int:
        return len(self._names)


# ======================================================================
# Int-keyed mirrors for the fast paths (fast_replay, the batch kernel):
# dense content ids instead of Names, ``pop_victim`` choosing *and*
# removing (the reference ``choose_victim`` + ``on_remove`` pair).  Each
# reproduces its reference's victim sequence exactly.  The caller inserts
# only untracked ids, accesses only tracked ones and pops only when
# something is tracked.
# ======================================================================
class IntrusiveOrder:
    """Mirror of :class:`LruPolicy` / :class:`FifoPolicy` over ids
    ``0 .. n-1``: an intrusive doubly-linked list, O(1) per operation.

    ``nxt``/``prv`` hold ``n + 1`` slots with the sentinel at ``n``; the
    victim is at the head (``nxt[n]``), the newest entry at the tail.
    FIFO shares the list but never reorders on access.  ``_ReplayCore``
    inlines these operations over the same arrays.
    """

    __slots__ = ("nxt", "prv", "sentinel", "refresh_on_access")

    def __init__(self, n: int, refresh_on_access: bool) -> None:
        self.nxt = [n] * (n + 1)
        self.prv = [n] * (n + 1)
        self.sentinel = n
        self.refresh_on_access = refresh_on_access

    def insert(self, cid: int) -> None:
        nxt = self.nxt
        prv = self.prv
        sentinel = self.sentinel
        tail = prv[sentinel]
        nxt[tail] = cid
        prv[cid] = tail
        nxt[cid] = sentinel
        prv[sentinel] = cid

    def access(self, cid: int) -> None:
        if self.refresh_on_access:  # LRU move-to-back; FIFO is a no-op
            nxt = self.nxt
            prv = self.prv
            sentinel = self.sentinel
            before = prv[cid]
            after = nxt[cid]
            nxt[before] = after
            prv[after] = before
            tail = prv[sentinel]
            nxt[tail] = cid
            prv[cid] = tail
            nxt[cid] = sentinel
            prv[sentinel] = cid

    def pop_victim(self) -> int:
        nxt = self.nxt
        sentinel = self.sentinel
        victim = nxt[sentinel]
        after = nxt[victim]
        nxt[sentinel] = after
        self.prv[after] = sentinel
        return victim


class IntrusiveLfu:
    """Mirror of :class:`LfuPolicy` over ids ``0 .. n-1``: frequency
    lists of lists, O(1) per operation (amortised for the victim scan).

    Per id, ``freq`` and the ``nxt``/``prv`` links inside its frequency
    bucket; per frequency, the bucket's ``head`` (oldest entry, the
    victim) and ``tail`` (newest), ``-1`` when empty.  ``head``/``tail``
    grow as frequencies appear.  ``min_freq`` follows the reference: it
    is 1 after an insert, steps up when an access empties its bucket, and
    :meth:`pop_victim` scans up from it lazily, so ties break in order of
    entry into the bucket and the victim sequence is the reference's.
    ``_ReplayCore`` inlines these operations over the same arrays.
    """

    __slots__ = ("nxt", "prv", "freq", "head", "tail", "min_freq")

    def __init__(self, n: int) -> None:
        self.nxt = [-1] * n
        self.prv = [-1] * n
        self.freq = [0] * n
        # Frequency 0 is never populated: index 0 keeps the lists aligned.
        self.head = [-1, -1]
        self.tail = [-1, -1]
        self.min_freq = 1

    def _append(self, cid: int, freq: int) -> None:
        """Enter ``cid`` at the back of bucket ``freq``."""
        tail = self.tail
        last = tail[freq]
        self.prv[cid] = last
        self.nxt[cid] = -1
        tail[freq] = cid
        if last == -1:
            self.head[freq] = cid
        else:
            self.nxt[last] = cid

    def insert(self, cid: int) -> None:
        self.freq[cid] = 1
        self._append(cid, 1)
        self.min_freq = 1

    def access(self, cid: int) -> None:
        nxt = self.nxt
        prv = self.prv
        head = self.head
        freq = self.freq[cid]
        before = prv[cid]
        after = nxt[cid]
        if before == -1:
            head[freq] = after
        else:
            nxt[before] = after
        if after == -1:
            self.tail[freq] = before
            if before == -1 and self.min_freq == freq:
                self.min_freq = freq + 1
        else:
            prv[after] = before
        freq += 1
        self.freq[cid] = freq
        if freq == len(head):
            head.append(-1)
            self.tail.append(-1)
        self._append(cid, freq)

    def pop_victim(self) -> int:
        head = self.head
        freq = self.min_freq
        victim = head[freq]
        while victim == -1:
            freq += 1
            victim = head[freq]
        self.min_freq = freq
        after = self.nxt[victim]
        head[freq] = after
        if after == -1:
            self.tail[freq] = -1
        else:
            self.prv[after] = -1
        return victim


class IntKeyedRandom:
    """Int-keyed mirror of :class:`RandomPolicy`.

    Keeps the same swap-remove list order and draws the same RNG stream,
    so victim choices match the reference bit for bit.  A
    :class:`~repro.sim.rng.LazyStream` is resolved at the first victim
    draw.
    """

    __slots__ = ("_stream", "_rng", "_list", "_pos")

    def __init__(self, rng: Stream) -> None:
        self._stream = rng
        self._rng: Optional[np.random.Generator] = None
        self._list: List[int] = []
        self._pos: Dict[int, int] = {}

    def insert(self, cid: int) -> None:
        self._pos[cid] = len(self._list)
        self._list.append(cid)

    def access(self, cid: int) -> None:
        pass

    def pop_victim(self) -> int:
        rng = self._rng
        if rng is None:
            rng = self._rng = as_generator(self._stream)
        idx = int(rng.integers(len(self._list)))
        cid = self._list[idx]
        pos = self._pos.pop(cid)
        last = self._list.pop()
        if last != cid:
            self._list[pos] = last
            self._pos[last] = pos
        return cid


#: Registry mapping policy names to constructors (for CLI/bench parameters).
POLICIES = {
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "lfu": LfuPolicy,
    "random": RandomPolicy,
}


def make_policy(kind: str, rng: Optional[Stream] = None) -> ReplacementPolicy:
    """Build a replacement policy by name (``lru``/``fifo``/``lfu``/``random``)."""
    try:
        ctor = POLICIES[kind]
    except KeyError:
        raise CacheError(
            f"unknown replacement policy {kind!r}; choose from {sorted(POLICIES)}"
        ) from None
    if kind == "random":
        return ctor(rng)
    return ctor()
