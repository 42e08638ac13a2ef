"""The batched dispatch loop: struct-of-arrays forwarding fast path.

Executes a :class:`~repro.sim.batch.compile.CompiledTopology` over a
plain ``heapq`` list of ``(time, seq, kind, ...)`` tuples, producing
*bit-identical* :class:`~repro.sim.batch.script.TopologyObservables` to
the reference object-graph engine.  Identity holds because every source
of ordering or randomness is mirrored exactly:

* **sequence numbers** — one monotonic counter, consumed at precisely the
  reference's schedule call sites.  Per link transmit: the fire-and-forget
  delivery.  Per consumer fetch: the delivery, *then* the WaitSignal
  timeout timer.  Per new PIT entry: the expiry timer *before* the
  (always-scheduled, even at zero processing delay) upstream-forward
  event.  Per delayed data send: the send event, then the transmit at
  fire time.  Ties at equal timestamps therefore break identically.
* **RNG draws** — link delays come from the link's own stream in transmit
  order; block draws with ``np.random.Generator`` are bit-identical to
  the reference's scalar draws, so delays are pre-drawn in chunks.
  Scheme thresholds are drawn in blocks by the shared
  :class:`~repro.core.schemes.base.SchemeKernel`, used at the reference
  call sites and handed back on ``close()``; random-replacement draws
  ride ``IntKeyedRandom`` on the policy's own stream.  Link, strategy
  and policy streams are resolved at their first draw (the first delay
  refill, admission or victim draw), so a stream nothing draws from is
  never built.
* **victims** — each router's LRU/FIFO/LFU state is the O(1) array
  structure of :mod:`repro.ndn.replacement` (``IntrusiveOrder``,
  ``IntrusiveLfu``) over the compiled vocabulary, whose victim sequence
  is the reference policy's.
* **float arithmetic** — event times are built with the same operation
  order as the reference (e.g. a re-armed PIT timer fires at
  ``now + (expiry - now)``, *not* at ``expiry``).

Both engines pop a ``(time, seq)`` heap and skip cancelled entries
lazily: a cancelled timer stays queued and is dropped when it surfaces
(here by its seq, in the engine by its :class:`Event` state).  The clock
advances only on fired events, so ``end_time`` and ``events_processed``
match :meth:`Engine.run` exactly.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Sequence, Set

import numpy as np

from repro.ndn.network import Network
from repro.ndn.replacement import IntKeyedRandom, IntrusiveLfu, IntrusiveOrder
from repro.sim.batch.compile import (
    COUNTER_NAMES,
    DELAY_FIXED,
    DELAY_GAUSSIAN,
    DEST_CONSUMER,
    DEST_ROUTER,
    S_BERN,
    S_CL4M,
    S_EDGE,
    S_LCD,
    S_LCE,
    S_PROB,
    SCHEME_DELAY_CONSTANT,
    SCHEME_DELAY_CONTENT,
    SERVE_DATA,
    CompiledTopology,
    compile_topology,
)
from repro.sim.batch.script import ConsumerScript, TopologyObservables, mark_spent
from repro.sim.rng import as_generator

# Router counter indices, in COUNTER_NAMES order (see compile.py).
(
    C_INTEREST_IN,
    C_CS_HIT,
    C_CS_DISGUISED,
    C_CS_FORCED_MISS,
    C_CS_MISS,
    C_PIT_COLLAPSE,
    C_RETX,
    C_NO_ROUTE,
    C_PIT_INSERT,
    C_FORWARDED,
    C_PIT_EXPIRED,
    C_DATA_IN,
    C_UNSOLICITED,
    C_PIT_SATISFIED,
    C_CS_INSERT,
    C_DATA_OUT,
    C_DECLINED,
    C_SKIPPED,
) = range(len(COUNTER_NAMES))

# Event kinds.  Entries are tuples (time, seq, kind, ...); comparison only
# ever reaches (time, seq) because seq is unique.
K_DI = 0  # deliver interest: (t, s, K_DI, edge, nid, priv, lifetime)
K_DD = 1  # deliver data:     (t, s, K_DD, edge, nid, oh)
K_SI = 2  # fire a scheduled upstream interest send (same payload as K_DI)
K_SD = 3  # fire a scheduled data send: (t, s, K_SD, edge, nid, oh)
K_PIT = 4  # PIT expiry timer: (t, s, K_PIT, rid, nid)     [cancellable]
K_TO = 5  # consumer fetch timeout: (t, s, K_TO, ci)       [cancellable]
K_SLEEP = 6  # resume a sleeping consumer script: (t, s, K_SLEEP, ci)

#: Link delays pre-drawn per refill; any chunk size yields the same
#: per-draw values (Generator block draws match scalar draws bit for bit).
_CHUNK = 512


def _make_policy(kind: str, stream, n_names: int):
    """Per-router replacement state over the compiled vocabulary; pop_victim
    chooses *and* removes, matching the reference ``choose_victim`` +
    ``on_remove`` pair."""
    if kind == "lru":
        return IntrusiveOrder(n_names, refresh_on_access=True)
    if kind == "fifo":
        return IntrusiveOrder(n_names, refresh_on_access=False)
    if kind == "lfu":
        return IntrusiveLfu(n_names)
    return IntKeyedRandom(stream)  # "random": compile guarantees the stream


def run_compiled(ct: CompiledTopology) -> TopologyObservables:
    """Execute a compiled topology and assemble its observables.

    The run draws from the network's own generators, so it leaves
    ``ct.net`` spent (:class:`~repro.sim.batch.script.NetworkSpentError`
    on any later run, this one's topology included).
    """
    mark_spent(ct.net)
    n_names = len(ct.names)
    name_priv = ct.name_private

    # ---- links ---------------------------------------------------------
    n_links = len(ct.links)
    l_kind = [cl.delay_kind for cl in ct.links]
    l_params = [cl.params for cl in ct.links]
    l_stream = [cl.stream for cl in ct.links]
    l_fix = [cl.params[0] if cl.delay_kind == DELAY_FIXED else 0.0 for cl in ct.links]
    l_buf: List[List[float]] = [[] for _ in range(n_links)]
    l_pos = [0] * n_links
    l_pkts = [0] * n_links

    dest_kind = ct.dest_kind
    dest_idx = ct.dest_idx

    # ---- routers -------------------------------------------------------
    n_routers = len(ct.routers)
    r_cached = [bytearray(n_names) for _ in range(n_routers)]
    r_priv = [bytearray(n_names) for _ in range(n_routers)]
    r_fd = [[0.0] * n_names for _ in range(n_routers)]
    r_ctr = [[0] * len(COUNTER_NAMES) for _ in range(n_routers)]
    r_pit: List[Dict[int, list]] = [{} for _ in range(n_routers)]
    r_size = [0] * n_routers
    r_evict = [0] * n_routers
    r_peak = [0] * n_routers
    r_cap = [cr.capacity for cr in ct.routers]
    r_proc = [cr.processing_delay for cr in ct.routers]
    r_dmode = [cr.delay_mode for cr in ct.routers]
    r_gamma = [cr.delay_gamma for cr in ct.routers]
    r_hops = [cr.next_hops for cr in ct.routers]
    policies = [
        _make_policy(cr.policy_kind, cr.policy_stream, n_names) for cr in ct.routers
    ]
    pol_insert = [p.insert for p in policies]
    pol_access = [p.access for p in policies]
    pol_pop = [p.pop_victim for p in policies]
    k_ins = [cr.kernel.on_insert for cr in ct.routers]
    k_dec = [cr.kernel.decide_private for cr in ct.routers]
    k_evi = [cr.kernel.on_evict for cr in ct.routers]
    k_trk = [cr.kernel.tracked for cr in ct.routers]
    s_kind = [cr.strategy_kind for cr in ct.routers]
    s_param = [cr.strategy_param for cr in ct.routers]
    s_stream = [cr.strategy_stream for cr in ct.routers]
    s_rng = [None] * n_routers  # resolved at the router's first admission draw
    r_never = [cr.never_cache for cr in ct.routers]
    track = ct.count_origin_hops

    # ---- producers -----------------------------------------------------
    p_serve = [cp.serve for cp in ct.producers]
    p_proc = [cp.processing_delay for cp in ct.producers]

    # ---- consumers (indexed in *script* order) -------------------------
    n_cons = len(ct.consumers)
    c_edge = [cc.edge for cc in ct.consumers]
    c_steps = [cc.steps for cc in ct.consumers]
    c_pc = [0] * n_cons
    c_out = [-1] * n_cons  # outstanding fetch nid, -1 when idle
    c_sent = [0.0] * n_cons
    c_tseq = [0] * n_cons  # the outstanding fetch's timeout timer seq
    c_deliv = [0] * n_cons
    c_rtts: List[List[float]] = [[] for _ in range(n_cons)]
    script_of_entity = ct.consumer_script_of_entity

    q: List[tuple] = []
    cancelled: Set[int] = set()  # seqs of cancelled timers still queued
    cancel = cancelled.add
    seq = 0
    maximum = np.maximum

    def link_delay(li: int) -> float:
        kind = l_kind[li]
        if kind == DELAY_FIXED:
            return l_fix[li]
        buf = l_buf[li]
        pos = l_pos[li]
        if pos >= len(buf):
            base, a, b = l_params[li]
            rng = as_generator(l_stream[li])
            if kind == DELAY_GAUSSIAN:  # (base, std, floor)
                buf = maximum(b, base + rng.normal(0.0, a, _CHUNK)).tolist()
            else:  # LOGNORMAL: (base, scale, sigma)
                buf = (base + a * rng.lognormal(0.0, b, _CHUNK)).tolist()
            l_buf[li] = buf
            pos = 0
        l_pos[li] = pos + 1
        return buf[pos]

    def send_interest(edge: int, t: float, nid: int, priv: bool, lifetime: float) -> None:
        nonlocal seq
        li = edge >> 1
        l_pkts[li] += 1
        heappush(q, (t + link_delay(li), seq, K_DI, edge, nid, priv, lifetime))
        seq += 1

    def send_data(edge: int, t: float, nid: int, oh: int) -> None:
        nonlocal seq
        li = edge >> 1
        l_pkts[li] += 1
        heappush(q, (t + link_delay(li), seq, K_DD, edge, nid, oh))
        seq += 1

    def advance(ci: int, t: float) -> None:
        """Run a consumer script to its next suspension (fetch or sleep)."""
        nonlocal seq
        steps = c_steps[ci]
        pc = c_pc[ci]
        if pc >= len(steps):
            return
        step = steps[pc]
        c_pc[ci] = pc + 1
        if step[0] == "F":
            _, nid, timeout, lifetime, priv = step
            # express_interest transmits first, then the WaitSignal
            # timeout timer is armed (seq order matters at equal times).
            send_interest(c_edge[ci], t, nid, priv, lifetime)
            c_out[ci] = nid
            c_sent[ci] = t
            c_tseq[ci] = seq
            heappush(q, (t + timeout, seq, K_TO, ci))
            seq += 1
        else:  # ("S", delay) — yield Timeout(delay)
            heappush(q, (t + step[1], seq, K_SLEEP, ci))
            seq += 1

    def router_interest(
        rid: int, edge: int, nid: int, priv: bool, lifetime: float, t: float
    ) -> None:
        nonlocal seq
        ctr = r_ctr[rid]
        ctr[C_INTEREST_IN] += 1
        arr = edge ^ 1  # the arrival face's send-edge
        if r_cached[rid][nid]:
            pol_access[rid](nid)  # cs.lookup(touch=True), before the scheme
            # Marking trigger rule (MarkingPolicy.effective_privacy).
            if name_priv[nid]:
                r_priv[rid][nid] = 1
                eff = True
            elif r_priv[rid][nid]:
                if priv:
                    eff = True
                else:
                    r_priv[rid][nid] = 0  # demoted for this residency
                    eff = False
            else:
                eff = False
            code = k_dec[rid](nid) if eff else 0
            if code == 0:  # observable HIT
                ctr[C_CS_HIT] += 1
                ctr[C_DATA_OUT] += 1
                delay = r_proc[rid]
                # Serving from the CS emits the object at origin (oh 0).
                if delay <= 0.0:
                    send_data(arr, t, nid, 0)
                else:
                    heappush(q, (t + delay, seq, K_SD, arr, nid, 0))
                    seq += 1
                return
            if code == 1:  # DELAYED_HIT
                ctr[C_CS_DISGUISED] += 1
                mode = r_dmode[rid]
                if mode == SCHEME_DELAY_CONTENT:
                    extra = r_fd[rid][nid]
                elif mode == SCHEME_DELAY_CONSTANT:
                    extra = r_gamma[rid]
                else:  # compile admits this shape only if never exercised
                    raise RuntimeError(
                        "scheme returned DELAYED_HIT without a delay policy"
                    )
                ctr[C_DATA_OUT] += 1
                delay = r_proc[rid] + extra
                if delay <= 0.0:
                    send_data(arr, t, nid, 0)
                else:
                    heappush(q, (t + delay, seq, K_SD, arr, nid, 0))
                    seq += 1
                return
            ctr[C_CS_FORCED_MISS] += 1
        else:
            ctr[C_CS_MISS] += 1

        # _forward_interest
        pit = r_pit[rid]
        entry = pit.get(nid)
        if entry is not None:
            # Nonces are globally fresh and routes acyclic, so "arrival
            # face already recorded" is exactly the retransmission test.
            faces = entry[3]
            is_retx = arr in faces
            if not is_retx:
                faces.append(arr)
            entry[2] = entry[2] and priv  # all_private
            expiry = t + lifetime
            if expiry > entry[0]:
                entry[0] = expiry
            ctr[C_PIT_COLLAPSE] += 1
            if is_retx:
                for e in r_hops[rid][nid]:
                    if e != arr:  # best-route: first candidate only
                        ctr[C_RETX] += 1
                        heappush(
                            q, (t + r_proc[rid], seq, K_SI, e, nid, priv, lifetime)
                        )
                        seq += 1
                        break
            return
        # New entry (timer seq is set only after the no-route check, like
        # the reference; peak updates on insert even if removed below).
        entry = [t + lifetime, t, priv, [arr], -1]
        pit[nid] = entry
        if len(pit) > r_peak[rid]:
            r_peak[rid] = len(pit)
        upstream = -1
        for e in r_hops[rid][nid]:
            if e != arr:
                upstream = e
                break
        if upstream < 0:
            ctr[C_NO_ROUTE] += 1
            del pit[nid]
            return
        ctr[C_PIT_INSERT] += 1
        entry[4] = seq
        heappush(q, (entry[0], seq, K_PIT, rid, nid))
        seq += 1
        ctr[C_FORWARDED] += 1
        # The forward is *always* a scheduled event, even at zero delay.
        heappush(q, (t + r_proc[rid], seq, K_SI, upstream, nid, priv, lifetime))
        seq += 1

    def router_data(rid: int, nid: int, oh: int, t: float) -> None:
        nonlocal seq
        ctr = r_ctr[rid]
        ctr[C_DATA_IN] += 1
        entry = r_pit[rid].pop(nid, None)  # pit.satisfy (exact match)
        if entry is None:
            ctr[C_UNSOLICITED] += 1
            return
        ctr[C_PIT_SATISFIED] += 1
        cancel(entry[4])  # a live PIT entry always has a pending timer
        fetch_delay = t - entry[1]
        # _maybe_cache (the cache filter is consulted before anything else)
        cached = r_cached[rid]
        if r_never[rid]:
            ctr[C_SKIPPED] += 1
        elif cached[nid]:
            pol_access[rid](nid)  # refresh in place: recency only
        else:
            # Strategy admission precedes the eviction loop, so a
            # randomized strategy's draw lands *before* any random-
            # replacement victim draws — same stream order as the
            # reference _maybe_cache.
            kind = s_kind[rid]
            if kind == S_LCE:
                admit = True
            elif kind == S_LCD:
                admit = oh == 0
            elif kind == S_PROB:
                p = (oh + 1) / s_param[rid]
                rng = s_rng[rid]
                if rng is None:
                    rng = s_rng[rid] = as_generator(s_stream[rid])
                admit = rng.random() < (p if p < 1.0 else 1.0)
            elif kind == S_EDGE:
                admit = False
                for e in entry[3]:
                    if dest_kind[e] != DEST_ROUTER:
                        admit = True
                        break
            elif kind == S_CL4M:
                # Betweenness verdict precomputed at compile time.
                admit = s_param[rid] != 0.0
            else:  # S_BERN
                rng = s_rng[rid]
                if rng is None:
                    rng = s_rng[rid] = as_generator(s_stream[rid])
                admit = rng.random() < s_param[rid]
            if not admit:
                ctr[C_DECLINED] += 1
            else:
                private = name_priv[nid] or entry[2]
                cap = r_cap[rid]
                if cap is not None:
                    while r_size[rid] >= cap:
                        victim = pol_pop[rid]()
                        cached[victim] = 0
                        r_size[rid] -= 1
                        r_evict[rid] += 1  # freshness is unused: never stale
                        if k_trk[rid][victim]:
                            k_evi[rid](victim)
                cached[nid] = 1
                r_size[rid] += 1
                r_priv[rid][nid] = 1 if private else 0
                r_fd[rid][nid] = fetch_delay
                pol_insert[rid](nid)
                if private:
                    k_ins[rid](nid)
                ctr[C_CS_INSERT] += 1
        # Fan out to every collapsed downstream face, in record order.
        oh_out = oh + 1 if track else oh
        delay = r_proc[rid]
        for downstream in entry[3]:
            ctr[C_DATA_OUT] += 1
            if delay <= 0.0:
                send_data(downstream, t, nid, oh_out)
            else:
                heappush(q, (t + delay, seq, K_SD, downstream, nid, oh_out))
                seq += 1

    # ---- main loop -----------------------------------------------------
    try:
        for ci in range(n_cons):  # net.spawn in script order, all at t=0
            advance(ci, 0.0)

        now = 0.0
        events = 0
        while q:
            entry = heappop(q)
            if entry[1] in cancelled:
                cancelled.remove(entry[1])
                continue
            now = t = entry[0]
            events += 1
            kind = entry[2]
            if kind == K_DI or kind == K_SI:
                if kind == K_SI:  # the scheduled send fires: transmit now
                    send_interest(entry[3], t, entry[4], entry[5], entry[6])
                    continue
                edge = entry[3]
                dk = dest_kind[edge]
                if dk == DEST_ROUTER:
                    router_interest(
                        dest_idx[edge], edge, entry[4], entry[5], entry[6], t
                    )
                elif dk == DEST_CONSUMER:
                    pass  # consumers do not serve content
                else:
                    pid = dest_idx[edge]
                    nid = entry[4]
                    if p_serve[pid][nid] == SERVE_DATA:
                        delay = p_proc[pid]
                        if delay > 0.0:
                            heappush(q, (t + delay, seq, K_SD, edge ^ 1, nid, 0))
                            seq += 1
                        else:
                            send_data(edge ^ 1, t, nid, 0)
            elif kind == K_DD:
                edge = entry[3]
                nid = entry[4]
                dk = dest_kind[edge]
                if dk == DEST_ROUTER:
                    router_data(dest_idx[edge], nid, entry[5], t)
                elif dk == DEST_CONSUMER:
                    ci = script_of_entity[dest_idx[edge]]
                    if ci >= 0 and c_out[ci] == nid:
                        c_rtts[ci].append(t - c_sent[ci])
                        cancel(c_tseq[ci])
                        c_out[ci] = -1
                        c_deliv[ci] += 1
                        advance(ci, t)
                    # else: unsolicited at the consumer (monitor-only)
            elif kind == K_SD:
                send_data(entry[3], t, entry[4], entry[5])
            elif kind == K_PIT:
                rid = entry[3]
                nid = entry[4]
                pit_entry = r_pit[rid].get(nid)
                if pit_entry is not None:
                    if pit_entry[0] > t:
                        # A collapse extended the entry: re-arm for the
                        # remainder (same float arithmetic as the reference).
                        pit_entry[4] = seq
                        heappush(q, (t + (pit_entry[0] - t), seq, K_PIT, rid, nid))
                        seq += 1
                    else:
                        del r_pit[rid][nid]
                        r_ctr[rid][C_PIT_EXPIRED] += 1
            elif kind == K_TO:
                ci = entry[3]
                c_out[ci] = -1  # fetch returns None; script continues inline
                advance(ci, t)
            else:  # K_SLEEP
                advance(entry[3], t)
    finally:
        for cr in ct.routers:
            cr.kernel.close()

    # ---- observables ---------------------------------------------------
    counter_names = COUNTER_NAMES
    router_counters = {}
    router_stats = {}
    for rid, cr in enumerate(ct.routers):
        ctr = r_ctr[rid]
        router_counters[cr.name] = {
            counter_names[i]: ctr[i] for i in range(len(ctr)) if ctr[i]
        }
        cap = cr.capacity
        router_stats[cr.name] = {
            "pit_size": float(len(r_pit[rid])),
            "pit_peak_size": float(r_peak[rid]),
            "pit_capacity": float("inf"),
            "pit_collapsed": float(ctr[C_PIT_COLLAPSE]),
            "pit_expired": float(ctr[C_PIT_EXPIRED]),
            "pit_overflow_dropped": 0.0,
            "pit_overflow_evicted": 0.0,
            "rate_limited": 0.0,
            "nack_in": 0.0,
            "nack_out": 0.0,
            "defense_throttled": 0.0,
            "cache_quarantined": 0.0,
            "pit_shed": 0.0,
            "cs_size": float(r_size[rid]),
            "cs_capacity": float(cap) if cap is not None else float("inf"),
            "cs_evictions": float(r_evict[rid]),
            "cs_stale_drops": 0.0,
        }
        for reason in ("congestion", "pit_full", "no_route"):
            router_stats[cr.name]["nack_in_" + reason] = 0.0
            router_stats[cr.name]["nack_out_" + reason] = 0.0
    return TopologyObservables(
        kernel="batch",
        delivered={cc.name: c_deliv[i] for i, cc in enumerate(ct.consumers)},
        rtts={cc.name: c_rtts[i] for i, cc in enumerate(ct.consumers)},
        link_packets={cl.name: l_pkts[i] for i, cl in enumerate(ct.links)},
        router_counters=router_counters,
        router_stats=router_stats,
        events_processed=events,
        end_time=now,
    )


def run_scripts_batch(
    net: Network, scripts: Sequence[ConsumerScript]
) -> TopologyObservables:
    """Compile and run on the batch kernel.

    Raises :class:`~repro.sim.batch.compile.BatchCompileError` when the
    topology cannot be lowered — use :func:`repro.sim.batch.run_scripts`
    with ``kernel="auto"`` for transparent reference fallback.
    """
    return run_compiled(compile_topology(net, scripts))
