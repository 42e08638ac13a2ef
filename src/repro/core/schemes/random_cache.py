"""Random-Cache: the paper's Algorithm 1, generic over the K distribution.

Per content (or per *group*, when a grouping function is supplied —
Section VI's correlation countermeasure):

1. when the content first enters the cache, draw k_C from the configured
   :class:`~repro.core.privacy.distributions.FirstHitDistribution` and set
   the request counter c_C := 0 (the fetch that inserted it was the
   always-miss first request of Algorithm 1);
2. on each subsequent request, increment c_C; answer a (disguised) miss
   while c_C <= k_C and a genuine cache hit afterwards.

Disguised misses use the configured delay policy (content-specific γ_C by
default) so they are observationally indistinguishable from real misses.

Uniform-Random-Cache and Exponential-Random-Cache are thin instantiations
(see :mod:`repro.core.schemes.uniform` / :mod:`repro.core.schemes.exponential`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence

import numpy as np

from repro.core.privacy.distributions import FirstHitDistribution
from repro.core.schemes.base import (
    FAST_DELAYED,
    FAST_HIT,
    CacheScheme,
    Decision,
    SchemeKernel,
)
from repro.core.schemes.delay_policies import ContentSpecificDelay, DelayPolicy
from repro.core.schemes.grouping import GroupingFunction, NoGrouping

if TYPE_CHECKING:  # avoid a runtime core->ndn import cycle
    from repro.ndn.cs import CacheEntry
    from repro.ndn.name import Name


@dataclass
class _GroupState:
    """Algorithm 1 state for one content group."""

    k: int
    c: int = 0
    members: int = 0


_BLOCK = 128  #: thresholds a kernel draws per generator call


class _RandomCacheKernel(SchemeKernel):
    """Int-keyed Algorithm 1 state over a precomputed content->group map.

    Group keys (names under :class:`NoGrouping`, prefixes or content ids
    otherwise) are interned to dense group ids once at construction; the
    per-request path is then pure list indexing.  ``tracked[cid]`` is the
    reference path's ``random_cache_group`` entry state: set while ``cid``
    is a member of its (static) group ``_gid_of[cid]``.  k_C is *used* at
    exactly the reference call sites (first private membership of a
    memberless group) but *drawn* ``_BLOCK`` at a time, value for value
    what the reference's scalar ``sample`` calls return; :meth:`close`
    rewinds the scheme's generator to its state before the current block
    and re-draws only the thresholds handed out, so it ends where
    :meth:`RandomCacheScheme.on_insert` would leave it.
    """

    __slots__ = ("_scheme", "_gid_of", "_k", "_c", "_members", "tracked",
                 "_block", "_rewind")

    def __init__(self, scheme: "RandomCacheScheme", names: Sequence[Name]) -> None:
        self._scheme = scheme
        n = len(names)
        if isinstance(scheme.grouping, NoGrouping):
            # Every content id is its own group: the identity map.
            gid_of = list(range(n))
            groups = n
        else:
            interned: Dict[Hashable, int] = {}
            gid_of = [
                interned.setdefault(scheme.grouping.group_of(name), len(interned))
                for name in names
            ]
            groups = len(interned)
        self._gid_of: List[int] = gid_of
        self._k = [0] * groups
        self._c = [0] * groups
        self._members = [0] * groups
        self.tracked = bytearray(n)
        self._block: List[int] = []  # drawn, not yet handed out; next one last
        self._rewind: Optional[dict] = None  # generator state before _block

    def on_insert(self, content_id: int) -> None:
        gid = self._gid_of[content_id]
        members = self._members[gid]
        if not members:
            if not self._block:
                rng = self._scheme.rng
                self._rewind = rng.bit_generator.state
                self._block = self._scheme.distribution.sample_block(rng, _BLOCK)[::-1]
            self._k[gid] = self._block.pop()
            self._c[gid] = 0
        self._members[gid] = members + 1
        self.tracked[content_id] = 1

    def decide_private(self, content_id: int) -> int:
        if not self.tracked[content_id]:
            # Entry became private after a non-private insert (mirrors the
            # adoption branch of the reference decide_private).
            self.on_insert(content_id)
        gid = self._gid_of[content_id]
        c = self._c[gid] + 1
        self._c[gid] = c
        return FAST_DELAYED if c <= self._k[gid] else FAST_HIT

    def on_evict(self, content_id: int) -> None:
        self.tracked[content_id] = 0
        self._members[self._gid_of[content_id]] -= 1

    def close(self) -> None:
        if self._rewind is not None:
            rng = self._scheme.rng
            rng.bit_generator.state = self._rewind
            self._scheme.distribution.sample_block(rng, _BLOCK - len(self._block))
            self._rewind, self._block = None, []


class RandomCacheScheme(CacheScheme):
    """Algorithm 1 with a pluggable first-hit distribution and grouping."""

    name = "random-cache"

    def __init__(
        self,
        distribution: FirstHitDistribution,
        rng: Optional[np.random.Generator] = None,
        delay_policy: Optional[DelayPolicy] = None,
        grouping: Optional[GroupingFunction] = None,
    ) -> None:
        self.distribution = distribution
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.delay_policy = (
            delay_policy if delay_policy is not None else ContentSpecificDelay()
        )
        self.grouping = grouping if grouping is not None else NoGrouping()
        self._groups: Dict[Hashable, _GroupState] = {}

    # ------------------------------------------------------------------
    # CacheScheme interface
    # ------------------------------------------------------------------
    def on_insert(self, entry: CacheEntry, private: bool, now: float) -> None:
        """Draw k_C for the entry's group on first membership."""
        if not private:
            return
        key = self.grouping.group_of(entry.name)
        state = self._groups.get(key)
        if state is None:
            state = _GroupState(k=self.distribution.sample(self.rng))
            self._groups[key] = state
        state.members += 1
        entry.scheme_state["random_cache_group"] = key

    def decide_private(self, entry: CacheEntry, now: float) -> Decision:
        key = entry.scheme_state.get("random_cache_group")
        if key is None:
            # Entry became private after insertion (consumer marking flip is
            # disallowed by the trigger rule, but producer re-marking or a
            # reset can land here): adopt it into its group now.
            self.on_insert(entry, private=True, now=now)
            key = entry.scheme_state["random_cache_group"]
        state = self._groups[key]
        state.c += 1
        if state.c <= state.k:
            return Decision.delayed(self.delay_policy.delay_for(entry, now))
        return Decision.hit()

    def on_evict(self, entry: CacheEntry) -> None:
        """Release the entry's group; drop group state with the last member."""
        key = entry.scheme_state.pop("random_cache_group", None)
        if key is None:
            return
        state = self._groups.get(key)
        if state is None:
            return
        state.members -= 1
        if state.members <= 0:
            del self._groups[key]

    def reset(self) -> None:
        self._groups.clear()

    def make_kernel(self, names: Sequence[Name]) -> Optional[SchemeKernel]:
        return _RandomCacheKernel(self, names)

    # ------------------------------------------------------------------
    # Introspection (used by tests and the privacy oracle)
    # ------------------------------------------------------------------
    def group_state(self, key: Hashable) -> Optional[_GroupState]:
        """Expose Algorithm 1 state for ``key`` (testing/analysis only)."""
        return self._groups.get(key)

    @property
    def tracked_groups(self) -> int:
        """Number of groups currently holding state."""
        return len(self._groups)
