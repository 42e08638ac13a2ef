"""Cache replacement policies for the Content Store.

The paper's evaluation uses LRU ("A router caches all content and removes
elements from its cache (when full) according to the LRU policy",
Section VII).  LFU, FIFO and Random are provided for the replacement-policy
ablation bench.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from typing import Dict, List, Optional

import numpy as np

from repro.ndn.errors import CacheError
from repro.ndn.name import Name


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
    """Uniform-random eviction, driven by a seeded generator."""

    def __init__(self, rng: Optional[np.random.Generator] = None) -> None:
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._names: list[Name] = []
        self._index: Dict[Name, int] = {}

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
# reproduces its reference's victim sequence exactly.
# ======================================================================
class IntKeyedOrder:
    """Int-keyed mirror of :class:`LruPolicy` / :class:`FifoPolicy`.

    Python dicts preserve insertion order, so ``next(iter(...))`` is the
    reference's ``OrderedDict`` front — the same victim sequence.
    """

    __slots__ = ("order", "refresh_on_access")

    def __init__(self, refresh_on_access: bool) -> None:
        self.order: Dict[int, None] = {}
        self.refresh_on_access = refresh_on_access

    def insert(self, cid: int) -> None:
        self.order[cid] = None

    def access(self, cid: int) -> None:
        if self.refresh_on_access:  # LRU move-to-end; FIFO is a no-op
            order = self.order
            del order[cid]
            order[cid] = None

    def pop_victim(self) -> int:
        order = self.order
        cid = next(iter(order))
        del order[cid]
        return cid


class IntKeyedLfu:
    """Int-keyed mirror of :class:`LfuPolicy`.

    Same frequency-bucket algorithm (insertion-ordered dicts, lazy
    ``_min_freq`` scan) so the victim sequence is identical.
    """

    __slots__ = ("_freq", "_buckets", "_min_freq")

    def __init__(self) -> None:
        self._freq: Dict[int, int] = {}
        self._buckets: Dict[int, Dict[int, None]] = {}
        self._min_freq = 0

    def insert(self, cid: int) -> None:
        self._freq[cid] = 1
        self._buckets.setdefault(1, {})[cid] = None
        self._min_freq = 1

    def access(self, cid: int) -> None:
        freq = self._freq[cid]
        bucket = self._buckets[freq]
        del bucket[cid]
        if not bucket:
            del self._buckets[freq]
            if self._min_freq == freq:
                self._min_freq = freq + 1
        self._freq[cid] = freq + 1
        self._buckets.setdefault(freq + 1, {})[cid] = None

    def pop_victim(self) -> int:
        while self._min_freq not in self._buckets:
            self._min_freq += 1
        bucket = self._buckets[self._min_freq]
        cid = next(iter(bucket))
        del self._freq[cid]
        del bucket[cid]
        if not bucket:
            del self._buckets[self._min_freq]
        return cid


class IntKeyedRandom:
    """Int-keyed mirror of :class:`RandomPolicy`.

    Keeps the same swap-remove list order and draws the same RNG stream,
    so victim choices match the reference bit for bit.
    """

    __slots__ = ("_rng", "_list", "_pos")

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._list: List[int] = []
        self._pos: Dict[int, int] = {}

    def insert(self, cid: int) -> None:
        self._pos[cid] = len(self._list)
        self._list.append(cid)

    def access(self, cid: int) -> None:
        pass

    def pop_victim(self) -> int:
        idx = int(self._rng.integers(len(self._list)))
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


def make_policy(kind: str, rng: Optional[np.random.Generator] = None) -> ReplacementPolicy:
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
