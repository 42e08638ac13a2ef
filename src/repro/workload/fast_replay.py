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
* LRU/FIFO recency is an array-backed intrusive doubly-linked list with
  O(1) touch/evict, inlined into the loop,
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
span per shard by :func:`_spans`, the only place a marking rule becomes
flags.  Cache, recency and kernel state carry across shards, so how a
trace is cut never shows in the result, and peak RSS on the mmap'd form
is bounded by one shard.

Schemes that do not provide a kernel (see
:meth:`CacheScheme.make_kernel`) transparently fall back to the
reference ``replay()`` on the compiled trace — itself a
:class:`~repro.workload.streaming.Workload` that yields requests — so
``fast_replay`` is always safe to call, on any input.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.schemes.base import CacheScheme
from repro.core.schemes.no_privacy import NoPrivacyScheme
from repro.ndn.errors import CacheError
from repro.ndn.replacement import POLICIES, IntKeyedLfu, IntKeyedRandom
from repro.workload.compiled import CompiledTrace
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
        "kernel", "cap", "fetch_delay", "refresh", "move_on_access",
        "inline_list", "cached", "entry_private", "nxt", "prv", "sentinel",
        "p_insert", "p_access", "p_pop", "size", "requests", "hits",
        "disguised", "misses", "private_requests", "private_hits",
        "evictions", "delay_total",
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

        # LRU/FIFO: intrusive doubly-linked list over content ids with a
        # sentinel at index n_names; head side = eviction victim, tail
        # side = most recent.  FIFO shares the list but never reorders on
        # access.
        self.inline_list = policy in ("lru", "fifo")
        self.move_on_access = policy == "lru"
        self.sentinel = n_names
        if self.inline_list:
            self.nxt = [0] * (n_names + 1)
            self.prv = [0] * (n_names + 1)
            self.nxt[self.sentinel] = self.sentinel
            self.prv[self.sentinel] = self.sentinel
            self.p_insert = self.p_access = self.p_pop = None
        else:
            pol = (
                IntKeyedLfu()
                if policy == "lfu"
                else IntKeyedRandom(np.random.default_rng(seed))
            )
            self.p_insert = pol.insert
            self.p_access = pol.access if policy == "lfu" else None
            self.p_pop = pol.pop_victim
            self.nxt = self.prv = []  # unused

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
        nxt = self.nxt
        prv = self.prv
        sentinel = self.sentinel
        inline_list = self.inline_list
        move_on_access = self.move_on_access
        p_insert = self.p_insert
        p_access = self.p_access
        p_pop = self.p_pop
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
                    if move_on_access:
                        before = prv[cid]
                        after = nxt[cid]
                        nxt[before] = after
                        prv[after] = before
                        tail = prv[sentinel]
                        nxt[tail] = cid
                        prv[cid] = tail
                        nxt[cid] = sentinel
                        prv[sentinel] = cid
                    elif p_access is not None:
                        p_access(cid)
                else:
                    # Disguised hits and forced misses refresh recency too,
                    # unless the refresh ablation is on.
                    if refresh:
                        if move_on_access:
                            before = prv[cid]
                            after = nxt[cid]
                            nxt[before] = after
                            prv[after] = before
                            tail = prv[sentinel]
                            nxt[tail] = cid
                            prv[cid] = tail
                            nxt[cid] = sentinel
                            prv[sentinel] = cid
                        elif p_access is not None:
                            p_access(cid)
                    if decision == 1:
                        disguised += 1
                        delay_total += fetch_delay
                    else:
                        misses += 1
            else:
                if cap is not None:
                    while size >= cap:
                        if inline_list:
                            victim = nxt[sentinel]
                            after = nxt[victim]
                            nxt[sentinel] = after
                            prv[after] = sentinel
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
                if inline_list:
                    tail = prv[sentinel]
                    nxt[tail] = cid
                    prv[cid] = tail
                    nxt[cid] = sentinel
                    prv[sentinel] = cid
                else:
                    p_insert(cid)
                if priv:
                    k_insert(cid)
                misses += 1

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


def _spans(
    rule: MarkingRule, compiled: CompiledTrace
) -> Iterator[Tuple[List[int], Sequence[bool]]]:
    """Yield (content ids, consumer privacy bits) per shard.

    Bit-identical to calling ``rule.is_private(name, index)`` per request
    in trace order.  The shipped rules, matched by exact type (a subclass
    may override ``is_private``), are array work: :class:`ContentMarking`
    compares the trace's memoized coin column (one hash per name per
    trace and salt) with its threshold, :class:`RequestMarking` draws one
    block per shard.  Anything else is evaluated per request, with the
    shard's occurrence column as ``index``.
    """
    per_name = None
    names: Sequence = ()
    if type(rule) is ContentMarking:
        if 0.0 < rule.fraction < 1.0:
            per_name = compiled.content_coins(rule) < rule.fraction
        else:
            per_name = np.full(compiled.n_names, rule.fraction >= 1.0)
    elif rule.uses_name:
        # Generic name-dependent rules need real Name objects per
        # request; build the vocabulary once (O(n_names), still
        # independent of trace length).  Name-blind rules skip even that.
        names = list(compiled.names)
    is_private = rule.is_private
    for shard in compiled.iter_shards():
        ids = shard.ids.tolist()
        if type(rule) is NoMarking:
            flags: Sequence[bool] = [False] * len(ids)
        elif per_name is not None:
            flags = per_name[shard.ids].tolist()
        elif type(rule) is RequestMarking:
            flags = rule.draw(len(ids)).tolist()
        elif rule.uses_request_index:
            occurrence = shard.occurrence.tolist()
            if rule.uses_name:
                flags = [
                    is_private(names[cid], occ) for cid, occ in zip(ids, occurrence)
                ]
            else:
                flags = [is_private(None, occ) for occ in occurrence]
        elif rule.uses_name:
            flags = [is_private(names[cid], 0) for cid in ids]
        else:
            flags = [is_private(None, 0) for _ in ids]
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
