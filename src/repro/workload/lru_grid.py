"""Figure 5 grid points from LRU stack distances, with no replay.

Under the paper's replay rules — LRU, every miss inserted, and every
request for cached content refreshing recency whatever the scheme answers
(a disguised hit refreshes too) — the cache history does not depend on the
scheme: whether request ``i`` finds its content cached depends only on the
trace and the capacity.  Mattson et al.'s stack algorithm (*Evaluation
techniques for storage hierarchies*, IBM Syst. J. 1970) gives every
request its LRU stack distance in one pass, and a request is a Content
Store hit at capacity ``c`` exactly when its distance is ``<= c`` — for
every ``c`` at once.

What a scheme adds is then a rule per *segment* (one cache residency:
from a miss of content C to C's next miss at the same capacity), and
inside a segment ``fast_replay``'s decisions depend on three things only:

* whether the inserting request was private — only then does Algorithm 1
  hold state, and it draws one ``k_C`` at that insert;
* the segment's first non-private request, which demotes the entry for
  the rest of the segment (the trigger rule);
* each private request's rank before that point (Algorithm 1's ``c_C``):
  it is a disguised hit iff its rank is ``<= k_C``.

The draws are taken in trace order of the private inserts, so one
``distribution.sample_array(rng, P)`` yields the values, and leaves the
generator state, that the kernel's blocks with hand-back do
(``sample_block``'s contract, as an array).  Always-Delay is
``k_C = inf`` and No-Privacy delays nothing.  :func:`lru_grid_stats` is
therefore bit-identical to ``fast_replay`` (and to the oracle
``replay()``) on every input :func:`runs_on_grid` accepts; the property
suite in ``tests/workload/test_lru_grid.py`` pins it to the oracle.

Every column a point reads is kept per trace: the occurrence order and
the stack distances in that order by ``CompiledTrace.lru_columns``, a
``ContentMarking``'s flags by ``CompiledTrace.grid_flags``, so a point
pays only the passes that depend on its capacity and its scheme.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.schemes.always_delay import AlwaysDelayScheme
from repro.core.schemes.base import CacheScheme
from repro.core.schemes.exponential import ExponentialRandomCache
from repro.core.schemes.grouping import NoGrouping
from repro.core.schemes.no_privacy import NoPrivacyScheme
from repro.core.schemes.random_cache import RandomCacheScheme
from repro.core.schemes.uniform import UniformRandomCache
from repro.ndn.errors import CacheError
from repro.workload.marking import MarkingRule, NoMarking
from repro.workload.replay import ReplayStats
from repro.workload.sharded import compile_workload
from repro.workload.streaming import Workload

#: Stack distance of a first occurrence: a miss at every capacity.
FIRST = np.iinfo(np.int32).max

#: Under NoGrouping these hold one Algorithm 1 state per content id.
_RANDOM_CACHE_TYPES = (RandomCacheScheme, UniformRandomCache, ExponentialRandomCache)

#: Requests brute-forced per block before the merge levels start.
_BASE_BLOCK = 16


def runs_on_grid(
    scheme: CacheScheme, policy: str, refresh_delayed_hits: bool
) -> bool:
    """True iff :func:`lru_grid_stats` equals ``fast_replay`` for this
    point: LRU with the paper's refresh rule, and a scheme whose *exact*
    type is No-Privacy, Always-Delay or a Random-Cache without grouping
    (a subclass may override a decision method)."""
    if policy != "lru" or not refresh_delayed_hits:
        return False
    kind = type(scheme)
    if kind in (NoPrivacyScheme, AlwaysDelayScheme):
        return True
    return kind in _RANDOM_CACHE_TYPES and type(scheme.grouping) is NoGrouping


def occurrence_order(ids: np.ndarray) -> np.ndarray:
    """Request indices sorted by content id, each content's requests in
    trace order (``int32``)."""
    return np.argsort(ids, kind="stable").astype(np.int32)


def _count_smaller_before(values: np.ndarray) -> np.ndarray:
    """``#{j < i : values[j] < values[i]}`` per ``i``, for distinct values.

    An offline dominance count: brute force inside blocks of
    ``_BASE_BLOCK``, then a bottom-up merge — each level sorts pairs of
    sorted blocks with one stable argsort (two runs per pair) and credits
    every right-block element with the left-block elements below it.
    Columns are ``int32`` where they fit: at a million requests the pass
    must not dominate a sweep's peak RSS.
    """
    n = values.shape[0]
    counts = np.zeros(n, dtype=np.int32)
    pos = np.arange(n, dtype=np.int32)
    shifted = (values - values.min()).astype(np.int32)
    span = int(shifted.max()) + 1
    block = pos // _BASE_BLOCK
    for offset in range(1, _BASE_BLOCK):
        counts[offset:] += (block[offset:] == block[:-offset]) & (
            shifted[:-offset] < shifted[offset:]
        )
    key = block.astype(np.int64)
    del block
    key *= span
    key += shifted
    perm = np.argsort(key, kind="stable")
    width = _BASE_BLOCK
    while width < n:
        pair = pos // (2 * width)
        np.multiply(pair, span, out=key, dtype=np.int64)
        key += shifted[perm]
        merge = np.argsort(key, kind="stable")
        perm = perm[merge]
        # ``merge`` holds pre-merge positions: odd blocks are right blocks.
        right = ((merge // width) & 1).astype(bool)
        del merge
        # Left-block elements sorted before each slot; every earlier pair
        # holds a full left block of ``width``.
        below = np.cumsum(~right, dtype=np.int32)
        below -= pair * width
        counts[perm[right]] += below[right]
        width *= 2
    return counts


def stack_distances(ids: np.ndarray, order: Optional[np.ndarray] = None) -> np.ndarray:
    """LRU stack distance per request (``int32``; :data:`FIRST` at a first
    occurrence).

    With ``prev_i`` the index of the previous request for the same
    content, the distance is one plus the number of distinct contents
    requested strictly between ``prev_i`` and ``i``, which is
    ``#{j < i : prev_j < prev_i} - prev_i``.  ``order`` is
    :func:`occurrence_order` of ``ids`` if the caller already has it.
    """
    n = ids.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int32)
    if order is None:
        order = occurrence_order(ids)
    # First occurrences get distinct negative keys, below every prev_i.
    prev = -1 - np.arange(n, dtype=np.int32)
    same = ids[order[1:]] == ids[order[:-1]]
    prev[order[1:][same]] = order[:-1][same]
    seen = prev >= 0
    dist = np.full(n, FIRST, dtype=np.int32)
    dist[seen] = _count_smaller_before(prev)[seen] - prev[seen]
    return dist


def _private_runs(
    dist_o: np.ndarray, cap: int, flags_o: np.ndarray, order: np.ndarray
) -> np.ndarray:
    """Per private insert, listed in trace order of the inserts (the order
    Algorithm 1 draws their ``k_C``): the private hits that follow it
    before its segment ends or is demoted — the requests whose rank
    Algorithm 1 counts.

    ``dist_o`` and ``flags_o`` are the distance and privacy columns in
    :func:`occurrence_order` ``order``: each content's requests
    contiguous, in trace order, starting with a miss.  Only the private
    requests are walked: a miss or a gap (a public request between two
    private ones) stops the run before it, so a stop that is a miss is a
    private insert and the run after it is its count.
    """
    at = np.flatnonzero(flags_o)
    miss = np.take(dist_o, at) > cap
    stop = np.ones(at.size + 1, dtype=bool)
    np.not_equal(at[1:], at[:-1] + 1, out=stop[1:-1])
    stop[:-1] |= miss
    stops = np.flatnonzero(stop)
    inserts = np.take(miss, stops[:-1])
    asked = np.compress(inserts, np.diff(stops) - 1)
    inserted_at = np.take(order, np.take(at, np.compress(inserts, stops[:-1])))
    return asked[np.argsort(inserted_at)]


def lru_grid_stats(
    trace: Workload,
    scheme: CacheScheme,
    marking: Optional[MarkingRule] = None,
    cache_size: Optional[int] = None,
    fetch_delay: float = 100.0,
) -> ReplayStats:
    """``fast_replay(trace, scheme, marking, cache_size, policy="lru",
    fetch_delay=fetch_delay)`` from array passes over the trace's memoised
    stack distances; the scheme's generator ends in the same state.

    ``scheme`` must satisfy :func:`runs_on_grid` for LRU with refresh.
    """
    if not runs_on_grid(scheme, "lru", True):
        raise ValueError(f"{scheme!r} does not run on the LRU grid")
    if cache_size is not None and cache_size < 1:
        raise CacheError(f"cache capacity must be >= 1 or None, got {cache_size}")
    compiled = compile_workload(trace)
    _, order, dist_o = compiled.lru_columns()
    n = dist_o.shape[0]
    # Every distance of a repeat is <= n_names, so capacities at or
    # above it (and None) keep every content once fetched.
    cap = compiled.n_names if cache_size is None else min(cache_size, compiled.n_names)
    flags_o = compiled.grid_flags(marking if marking is not None else NoMarking())

    miss_o = dist_o > cap
    misses = int(np.count_nonzero(miss_o))
    disguised = 0
    if type(scheme) is not NoPrivacyScheme:
        asked = _private_runs(dist_o, cap, flags_o, order)
        if type(scheme) is not AlwaysDelayScheme and asked.size:
            k = scheme.distribution.sample_array(scheme.rng, asked.size)
            np.minimum(asked, k, out=asked)
        disguised = int(asked.sum())
    return ReplayStats(
        requests=n,
        hits=n - misses - disguised,
        disguised_hits=disguised,
        misses=misses,
        private_requests=int(np.count_nonzero(flags_o)),
        private_hits=int(np.count_nonzero(flags_o & ~miss_o)) - disguised,
        evictions=misses - cap,
        # The kernel adds fetch_delay once per disguised hit; so does a
        # sequential accumulate (n * fetch_delay may round differently).
        artificial_delay_total=float(
            np.add.accumulate(np.full(disguised, fetch_delay))[-1]
        ) if disguised else 0.0,
    )
