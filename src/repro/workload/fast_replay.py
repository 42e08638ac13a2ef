"""Fast trace replay over interned content ids.

This is the performance twin of :func:`repro.workload.replay.replay`: the
same router model (Content Store + privacy scheme + marking trigger rule,
Section VII accounting) restated over the dense ``int32`` ids of a
:class:`~repro.workload.compiled.CompiledTrace`.  The reference replay
stays the oracle — this kernel must produce **bit-identical**
:class:`~repro.workload.replay.ReplayStats` (asserted by the parity suite
in ``tests/workload/test_fast_replay.py``) while running ~an order of
magnitude faster:

* names are interned once; the hot loop is list/bytearray indexing, with
  no ``Name`` hashing, no prefix-index maintenance, no per-request
  ``Decision``/``CacheEntry`` object churn,
* replacement state is array-backed with O(1) touch/insert/evict,
  inlined into the loop: LRU/FIFO recency is an intrusive doubly-linked
  list (:class:`~repro.ndn.replacement.IntrusiveOrder`'s arrays) and LFU
  is a list of frequency lists
  (:class:`~repro.ndn.replacement.IntrusiveLfu`'s), so a replay's cost
  does not grow with the cache size,
* privacy marking is precompiled to a flat flag list (one hash per
  *unique* name per trace for :class:`ContentMarking`, not one per request),
* scheme decisions dispatch to int-keyed
  :class:`~repro.core.schemes.base.SchemeKernel` state machines that
  leave the scheme's RNG exactly where the reference leaves it.

There is one body.  A compiled trace is a name table plus an ordered
sequence of column shards — one shard in RAM from
:func:`~repro.workload.sharded.compile_workload`, many memory-mapped ones
from a
:class:`~repro.workload.sharded.ShardedCompiledTrace` — and the loop
lives in a resumable :class:`_ReplayCore` fed one (ids, privacy flags)
span per shard by :func:`_spans`.  Flags come from :func:`_shard_flags`
(per shard) or :func:`_trace_flags` (the whole trace at once, for the
LRU grid in :mod:`repro.workload.lru_grid`), the only place a marking
rule becomes flags.  Cache, recency
and kernel state carry across shards, so how a trace is cut never shows
in the result, and peak RSS on the mmap'd form is bounded by one shard.

Fig. 5's own points (LRU, the paper's refresh rule, No-Privacy,
Always-Delay or an ungrouped Random-Cache) do not come here from a
sweep: with every request refreshing recency the cache history is the
same for every scheme, and :func:`~repro.workload.lru_grid.lru_grid_stats`
derives their stats from LRU stack distances without a replay.  This
kernel stays their reference, and runs every other point.

Schemes that do not provide a kernel (see
:meth:`CacheScheme.make_kernel`) transparently fall back to the
reference ``replay()`` on the compiled trace — itself a
:class:`~repro.workload.streaming.Workload` that yields requests — so
``fast_replay`` is always safe to call, on any input.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.schemes.base import CacheScheme
from repro.core.schemes.no_privacy import NoPrivacyScheme
from repro.ndn.errors import CacheError
from repro.ndn.replacement import (
    POLICIES,
    IntKeyedRandom,
    IntrusiveLfu,
    IntrusiveOrder,
)
from repro.workload.compiled import CompiledTrace, TraceShard
from repro.workload.marking import (
    ContentMarking,
    MarkingRule,
    NoMarking,
    RequestMarking,
)
from repro.workload.replay import ReplayStats, replay
from repro.workload.sharded import compile_workload
from repro.workload.streaming import Workload


class _ReplayCore:
    """The replay state machine, resumable across id spans.

    One instance replays one trace: construct, feed each span of
    (content ids, privacy flags) in order through :meth:`run_span`, read
    :meth:`stats`.
    """

    __slots__ = (
        "kernel", "cap", "fetch_delay", "refresh", "policy", "cached",
        "entry_private", "size", "requests", "hits", "disguised", "misses",
        "private_requests", "private_hits", "evictions", "delay_total",
    )

    def __init__(
        self,
        kernel,
        n_names: int,
        cache_size: Optional[int],
        policy: str,
        fetch_delay: float,
        seed: int,
        refresh_delayed_hits: bool,
    ) -> None:
        self.kernel = kernel
        self.cap = cache_size
        self.fetch_delay = fetch_delay
        self.refresh = refresh_delayed_hits
        self.cached = bytearray(n_names)
        self.entry_private = bytearray(n_names)

        # LRU/FIFO and LFU keep their state in the arrays of
        # IntrusiveOrder / IntrusiveLfu, and run_span inlines their
        # operations; only Random goes through its mirror's methods.
        self.policy: Union[IntrusiveOrder, IntrusiveLfu, IntKeyedRandom]
        if policy in ("lru", "fifo"):
            self.policy = IntrusiveOrder(n_names, refresh_on_access=policy == "lru")
        elif policy == "lfu":
            self.policy = IntrusiveLfu(n_names)
        else:
            self.policy = IntKeyedRandom(np.random.default_rng(seed))

        self.size = 0
        self.requests = 0
        self.hits = 0
        self.disguised = 0
        self.misses = 0
        self.private_requests = 0
        self.private_hits = 0
        self.evictions = 0
        self.delay_total = 0.0

    def run_span(self, ids: Sequence[int], flags: Sequence[bool]) -> None:
        """Replay one span, consulting the scheme kernel only for private
        inserts, private requests and evictions of content it tracks."""
        # Hot loop: hoist all state into locals, write counters back once.
        cached = self.cached
        entry_private = self.entry_private
        policy = self.policy
        in_order = type(policy) is IntrusiveOrder
        is_lfu = type(policy) is IntrusiveLfu
        move_on_access = in_order and policy.refresh_on_access
        # nxt/prv: the recency list (sentinel at index n_names, victim at
        # its head) or, for LFU, the links inside each frequency bucket
        # (-1 ends a bucket; head/tail index the buckets by frequency).
        if in_order or is_lfu:
            nxt = policy.nxt
            prv = policy.prv
        sentinel = policy.sentinel if in_order else -1
        if is_lfu:
            freq = policy.freq
            head = policy.head
            tail = policy.tail
            min_freq = policy.min_freq
        p_insert = policy.insert  # called for Random only
        p_pop = policy.pop_victim
        k_insert = self.kernel.on_insert
        k_decide = self.kernel.decide_private
        k_evict = self.kernel.on_evict
        k_tracked = self.kernel.tracked
        cap = self.cap
        size = self.size
        refresh = self.refresh
        fetch_delay = self.fetch_delay
        hits = self.hits
        disguised = self.disguised
        misses = self.misses
        private_requests = self.private_requests
        private_hits = self.private_hits
        evictions = self.evictions
        delay_total = self.delay_total

        n = len(ids)
        for i in range(n):
            cid = ids[i]
            priv = flags[i]
            if priv:
                private_requests += 1
            if cached[cid]:
                if entry_private[cid]:
                    if priv:
                        decision = k_decide(cid)
                    else:
                        # Trigger rule: one unmarked request demotes the
                        # entry for the rest of its cache residency.
                        entry_private[cid] = 0
                        decision = 0
                else:
                    decision = 0
                if decision == 0:
                    hits += 1
                    if priv:
                        private_hits += 1
                else:
                    if decision == 1:
                        disguised += 1
                        delay_total += fetch_delay
                    else:
                        misses += 1
                    # Disguised hits and forced misses refresh recency
                    # too, unless the refresh ablation is on.
                    if not refresh:
                        continue
                # Refresh recency: LRU moves to the back of the list, LFU
                # to the back of the next frequency's bucket; FIFO and
                # Random do nothing.
                if move_on_access:
                    before = prv[cid]
                    after = nxt[cid]
                    nxt[before] = after
                    prv[after] = before
                    last = prv[sentinel]
                    nxt[last] = cid
                    prv[cid] = last
                    nxt[cid] = sentinel
                    prv[sentinel] = cid
                elif is_lfu:
                    f = freq[cid]
                    before = prv[cid]
                    after = nxt[cid]
                    if before == -1:
                        head[f] = after
                    else:
                        nxt[before] = after
                    if after == -1:
                        tail[f] = before
                        if before == -1 and min_freq == f:
                            min_freq = f + 1
                    else:
                        prv[after] = before
                    f += 1
                    freq[cid] = f
                    if f == len(head):
                        head.append(-1)
                        tail.append(-1)
                    last = tail[f]
                    prv[cid] = last
                    nxt[cid] = -1
                    tail[f] = cid
                    if last == -1:
                        head[f] = cid
                    else:
                        nxt[last] = cid
            else:
                if cap is not None:
                    while size >= cap:
                        if in_order:
                            victim = nxt[sentinel]
                            after = nxt[victim]
                            nxt[sentinel] = after
                            prv[after] = sentinel
                        elif is_lfu:
                            # Lazy upward scan to the lowest populated
                            # frequency; its oldest entry is the victim.
                            f = min_freq
                            victim = head[f]
                            while victim == -1:
                                f += 1
                                victim = head[f]
                            min_freq = f
                            after = nxt[victim]
                            head[f] = after
                            if after == -1:
                                tail[f] = -1
                            else:
                                prv[after] = -1
                        else:
                            victim = p_pop()
                        cached[victim] = 0
                        size -= 1
                        evictions += 1
                        if k_tracked[victim]:
                            k_evict(victim)
                cached[cid] = 1
                entry_private[cid] = 1 if priv else 0
                size += 1
                if in_order:
                    last = prv[sentinel]
                    nxt[last] = cid
                    prv[cid] = last
                    nxt[cid] = sentinel
                    prv[sentinel] = cid
                elif is_lfu:
                    freq[cid] = 1
                    last = tail[1]
                    prv[cid] = last
                    nxt[cid] = -1
                    tail[1] = cid
                    if last == -1:
                        head[1] = cid
                    else:
                        nxt[last] = cid
                    min_freq = 1
                else:
                    p_insert(cid)
                if priv:
                    k_insert(cid)
                misses += 1

        if is_lfu:
            policy.min_freq = min_freq
        self.size = size
        self.requests += n
        self.hits = hits
        self.disguised = disguised
        self.misses = misses
        self.private_requests = private_requests
        self.private_hits = private_hits
        self.evictions = evictions
        self.delay_total = delay_total

    def stats(self) -> ReplayStats:
        return ReplayStats(
            requests=self.requests,
            hits=self.hits,
            disguised_hits=self.disguised,
            misses=self.misses,
            private_requests=self.private_requests,
            private_hits=self.private_hits,
            evictions=self.evictions,
            artificial_delay_total=self.delay_total,
        )


def _name_flags(rule: MarkingRule, compiled: CompiledTrace) -> Optional[np.ndarray]:
    """Consumer privacy bit per content id (``bool``) when ``rule`` is a
    :class:`ContentMarking` (by exact type: a subclass may override
    ``is_private``), from the trace's memoized coin column (one hash per
    name per trace and salt); ``None`` for every other rule."""
    if type(rule) is not ContentMarking:
        return None
    if 0.0 < rule.fraction < 1.0:
        return compiled.content_coins(rule) < rule.fraction
    return np.full(compiled.n_names, rule.fraction >= 1.0)


def _shard_flags(
    rule: MarkingRule, compiled: CompiledTrace
) -> Iterator[Tuple[TraceShard, Union[np.ndarray, List[bool]]]]:
    """Yield (shard, consumer privacy bits) per shard, in trace order: with
    :func:`_trace_flags`, the one place a marking rule becomes flags.

    Bit-identical to calling ``rule.is_private(name, index)`` per request
    in trace order.  The shipped rules, matched by exact type, are array
    work and give a ``bool`` array: :class:`ContentMarking` gathers
    :func:`_name_flags`, :class:`RequestMarking` draws one block per
    shard.  Anything else is evaluated per request, with the shard's
    occurrence column as ``index``, into a list.
    """
    per_name = _name_flags(rule, compiled)
    names: Sequence = ()
    if per_name is None and rule.uses_name:
        # Generic name-dependent rules need real Name objects per
        # request; build the vocabulary once (O(n_names), still
        # independent of trace length).  Name-blind rules skip even that.
        names = list(compiled.names)
    is_private = rule.is_private
    for shard in compiled.iter_shards():
        flags: Union[np.ndarray, List[bool]]
        if type(rule) is NoMarking:
            flags = np.zeros(len(shard), dtype=bool)
        elif per_name is not None:
            flags = np.take(per_name, shard.ids)
        elif type(rule) is RequestMarking:
            flags = rule.draw(len(shard))
        elif rule.uses_request_index:
            occurrence = shard.occurrence.tolist()
            if rule.uses_name:
                flags = [
                    is_private(names[cid], occ)
                    for cid, occ in zip(shard.ids.tolist(), occurrence)
                ]
            else:
                flags = [is_private(None, occ) for occ in occurrence]
        elif rule.uses_name:
            flags = [is_private(names[cid], 0) for cid in shard.ids.tolist()]
        else:
            flags = [is_private(None, 0) for _ in range(len(shard))]
        yield shard, flags


def _trace_flags(
    rule: MarkingRule, compiled: CompiledTrace, ids: np.ndarray
) -> np.ndarray:
    """Consumer privacy bits for the whole trace as one ``bool`` array,
    given its whole content-id column ``ids`` (the LRU grid's form).

    A :class:`ContentMarking` is one gather over ``ids`` with no shard
    touched; every other rule is :func:`_shard_flags` joined, so
    :class:`RequestMarking` still draws one block per shard.
    """
    per_name = _name_flags(rule, compiled)
    if per_name is not None:
        return np.take(per_name, ids)
    parts = [np.asarray(flags, dtype=bool) for _, flags in _shard_flags(rule, compiled)]
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=bool)


def _spans(
    rule: MarkingRule, compiled: CompiledTrace
) -> Iterator[Tuple[List[int], Sequence[bool]]]:
    """Yield (content ids, consumer privacy bits) per shard as lists, the
    form :meth:`_ReplayCore.run_span` indexes (flags from
    :func:`_shard_flags`)."""
    for shard, flags in _shard_flags(rule, compiled):
        ids = shard.ids.tolist()
        if isinstance(flags, np.ndarray):
            flags = flags.tolist() if flags.any() else [False] * len(ids)
        yield ids, flags


def fast_replay(
    trace: Workload,
    scheme: Optional[CacheScheme] = None,
    marking: Optional[MarkingRule] = None,
    cache_size: Optional[int] = None,
    policy: str = "lru",
    fetch_delay: float = 100.0,
    seed: int = 0,
    refresh_delayed_hits: bool = True,
) -> ReplayStats:
    """Replay a trace through one router on the interned fast path.

    Drop-in replacement for :func:`repro.workload.replay.replay` — same
    parameters, same :class:`ReplayStats`, bit for bit.  Accepts any
    workload (compiled by ``compile_workload``); a trace that is already
    compiled — an in-RAM :class:`CompiledTrace` or an on-disk
    :class:`~repro.workload.sharded.ShardedCompiledTrace` (replayed
    shard by shard at bounded RSS, same observables) — is used as it is.
    """
    if policy not in POLICIES:
        raise CacheError(
            f"unknown replacement policy {policy!r}; choose from {sorted(POLICIES)}"
        )
    if cache_size is not None and cache_size < 1:
        raise CacheError(
            f"cache capacity must be >= 1 or None, got {cache_size}"
        )
    scheme = scheme if scheme is not None else NoPrivacyScheme()
    rule = marking if marking is not None else NoMarking()

    compiled = compile_workload(trace)
    kernel = scheme.make_kernel(compiled.names)
    if kernel is None:
        # Unknown scheme type: stay correct by running the oracle path.
        return replay(
            compiled,
            scheme=scheme,
            marking=rule,
            cache_size=cache_size,
            policy=policy,
            fetch_delay=fetch_delay,
            seed=seed,
            refresh_delayed_hits=refresh_delayed_hits,
        )

    core = _ReplayCore(
        kernel, compiled.n_names, cache_size, policy, fetch_delay, seed,
        refresh_delayed_hits,
    )
    try:
        for ids, flags in _spans(rule, compiled):
            core.run_span(ids, flags)
    finally:
        kernel.close()
    return core.stats()
