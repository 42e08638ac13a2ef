"""The NDN forwarder: one router (or host daemon) of the data plane.

Interest pipeline (Section II, plus the privacy hooks of Sections V–VI and
the overload-robustness layer):

1. **Admission control** — an optional per-face token bucket
   (:class:`~repro.ndn.admission.InterestRateLimit`) rejects interests
   from faces exceeding their rate, answering with a congestion Nack.
2. **Content Store lookup** — prefix-match, honoring the footnote-5
   exclusion of unpredictable names.  The entry is refreshed on lookup even
   when the eventual response is delayed or disguised (Section VII).
3. **Privacy scheme consultation** — the marking rules fix the entry's
   effective privacy, then the configured :class:`CacheScheme` decides:
   serve now (HIT), serve after an artificial delay (DELAYED_HIT), or
   behave like a miss and re-fetch upstream (MISS).
4. **PIT** — misses insert or collapse into the pending-interest table.
   A bounded PIT may reject the interest (``drop-new`` → Nack) or preempt
   the entry closest to expiry (``evict-oldest-expiry`` → the preempted
   entry's faces are Nacked).
5. **Scope** — an interest whose scope budget is exhausted at this node is
   not forwarded (routers may be configured to disregard scope, as the
   paper notes they are allowed to).
6. **FIB** — longest-prefix-match forward to the best next hop.

Data pipeline: PIT match → record the interest-in→content-out delay γ_C →
cache admission (with the scheme's per-entry state initialization) →
fan-out to all collapsed faces.

Nack pipeline: a Nack from upstream removes the matching PIT entry and
propagates to every collapsed downstream face, carrying the congestion
signal back to consumers, which back off through their
:class:`~repro.faults.retry.RetryPolicy`.

Every interest entering the router is classified exactly once, so the
:mod:`repro.validation` invariant checker can assert the conservation law

    interest_in == cs_hit + cs_disguised_hit + rate_limited
                   + defense_throttled + pit_overflow_drop + pit_collapse
                   + scope_drop + no_route + pit_insert

and the PIT ledger

    pit_insert == pit_satisfied + pit_expired + pit_nacked
                  + pit_preempted + pit_drained + pit_shed + len(pit).

The optional online defense agent (:mod:`repro.defense`) observes the
pipeline through five hooks — ``allow_interest`` (throttle gate, before
the static rate limiter), ``observe_interest`` (after the CS verdict),
``observe_pit_expired`` (flood attribution), ``observe_pit_overflow``
(bounded-PIT rejection attribution), ``veto_cache`` (pollution
quarantine) — each a single ``is not None`` test when disabled, so a
defense-off run is bit-identical to a build without the hooks.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.core.schemes.base import CacheScheme, DecisionKind
from repro.core.schemes.marking import MarkingPolicy
from repro.core.schemes.no_privacy import NoPrivacyScheme
from repro.ndn.admission import FaceRateLimiter, InterestRateLimit
from repro.ndn.cs import ContentStore
from repro.ndn.fib import Fib
from repro.ndn.link import Face
from repro.ndn.packets import (
    NACK_CONGESTION,
    NACK_NO_ROUTE,
    NACK_PIT_FULL,
    NACK_REASONS,
    Data,
    Interest,
    Nack,
)
from repro.ndn.pit import Pit, PitEntry
from repro.ndn.strategy import CachingStrategy
from repro.sim.engine import Engine
from repro.sim.monitor import Monitor

#: Per-reason Nack counter names, precomputed so the Nack hot path pays a
#: dict lookup, not string formatting.  The flood detector needs the
#: reasons disaggregated (congestion backpressure vs. pit-full overload
#: vs. routing holes behave very differently under attack).
_NACK_IN_COUNTERS = {
    reason: "nack_in_" + reason.replace("-", "_") for reason in NACK_REASONS
}
_NACK_OUT_COUNTERS = {
    reason: "nack_out_" + reason.replace("-", "_") for reason in NACK_REASONS
}


def never_cache(data: Data) -> bool:
    """The constant ``cache_filter``: this router takes no copies.

    Install *this object* (``router.cache_filter = never_cache``) for a
    pass-through router.  The batch compiler lowers exactly it — by
    identity, since an arbitrary callable's verdict cannot be known
    without running it — so such a router counts ``cache_skipped`` and
    inserts nothing on either engine; any other filter rides the
    reference fallback.
    """
    return False


class Forwarder:
    """An NDN node: CS + PIT + FIB + privacy scheme."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        cs: Optional[ContentStore] = None,
        scheme: Optional[CacheScheme] = None,
        marking: Optional[MarkingPolicy] = None,
        monitor: Optional[Monitor] = None,
        honor_scope: bool = True,
        processing_delay: float = 0.0,
        cache_filter: Optional[Callable[[Data], bool]] = None,
        strategy: str = "best-route",
        pit: Optional[Pit] = None,
        rate_limit: Optional[InterestRateLimit] = None,
        nack_on_no_route: bool = False,
        caching: Optional[CachingStrategy] = None,
    ) -> None:
        """``strategy`` selects among FIB next hops: ``best-route``
        forwards to the single cheapest face; ``multicast`` forwards to
        every registered next hop (duplicate data returning on the losing
        paths is dropped as unsolicited).

        ``caching`` installs an on-path cache-admission strategy
        (:mod:`repro.ndn.strategy`); ``None`` keeps the paper's implicit
        cache-everywhere (LCE) behavior with zero per-packet overhead.
        Hop-counting strategies additionally need
        :attr:`count_origin_hops` flipped on (the
        :class:`~repro.ndn.network.Network` does this network-wide).

        ``pit`` installs a custom (typically capacity-bounded) pending
        interest table; ``rate_limit`` arms per-face interest admission
        control.  Overload rejections (rate limit, bounded-PIT drop or
        preemption) always answer with a Nack; ``nack_on_no_route``
        additionally Nacks routeless interests instead of the legacy
        silent drop.
        """
        if strategy not in ("best-route", "multicast"):
            raise ValueError(
                f"unknown strategy {strategy!r}; use 'best-route' or 'multicast'"
            )
        self.engine = engine
        self.name = name
        self.cs = cs if cs is not None else ContentStore()
        self.pit = pit if pit is not None else Pit()
        self.fib = Fib()
        self.scheme = scheme if scheme is not None else NoPrivacyScheme()
        self.marking = marking if marking is not None else MarkingPolicy()
        self.monitor = monitor if monitor is not None else Monitor()
        self.honor_scope = honor_scope
        self.processing_delay = processing_delay
        self.cache_filter = cache_filter
        self.strategy = strategy
        self.rate_limiter = (
            FaceRateLimiter(rate_limit) if rate_limit is not None else None
        )
        self.nack_on_no_route = nack_on_no_route
        self.caching = caching
        # Hot-path shortcut: None when admission can never decline (no
        # strategy, or a trivial one like LCE), so the default data path
        # pays nothing for the strategy axis.
        self._admit = (
            caching.admit if caching is not None and not caching.trivial else None
        )
        #: Maintain ``Data.origin_hops`` on forwarded/served data.  Off by
        #: default (the seed data path); the Network flips it on every
        #: router once any installed strategy needs hop counts.
        self.count_origin_hops = False
        #: Optional online defense agent (:mod:`repro.defense`).  ``None``
        #: keeps every hook a single attribute test — the default data
        #: path pays nothing for the defense axis.
        self.defense = None
        self.faces: List[Face] = []
        #: False while crashed: every arriving packet is dropped.
        self.up = True
        self.cs.add_evict_listener(self.scheme.on_evict)
        self.pit.add_evict_listener(self._on_pit_preempted)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def create_face(self, label: str = "") -> Face:
        """Create and register a new face owned by this forwarder."""
        face = Face(self, label=label or f"{self.name}:face{len(self.faces)}")
        self.faces.append(face)
        return face

    # ------------------------------------------------------------------
    # Interest pipeline
    # ------------------------------------------------------------------
    def receive_interest(self, interest: Interest, face: Face) -> None:
        """Process an interest arriving on ``face``."""
        if not self.up:
            self.monitor.count("down_dropped_interest")
            return
        self.monitor.count("interest_in")
        defense = self.defense
        if defense is not None and not defense.allow_interest(
            interest, face, self.engine.now
        ):
            # Mitigation throttle: an escalated per-face budget, distinct
            # from the static rate limiter so de-escalation restores the
            # configured admission exactly.
            self.monitor.count("defense_throttled")
            self._send_nack_on(
                face, Nack.for_interest(interest, NACK_CONGESTION)
            )
            return
        if self.rate_limiter is not None and not self.rate_limiter.allow(
            face, self.engine.now
        ):
            self.monitor.count("rate_limited")
            self._send_nack_on(
                face, Nack.for_interest(interest, NACK_CONGESTION)
            )
            return
        entry = self.cs.lookup(interest.name, self.engine.now, touch=True)
        if entry is not None:
            marking = self.marking.on_request(entry, interest)
            decision = self.scheme.on_request(entry, marking.private, self.engine.now)
            # A cache hit makes this node the serving node: with hop
            # counting on, the copy leaves with origin_hops reset to 0.
            served = (
                entry.data.at_origin() if self.count_origin_hops else entry.data
            )
            if decision.kind is DecisionKind.HIT:
                self.monitor.count("cs_hit")
                if defense is not None:
                    defense.observe_interest(
                        interest.name, face, self.engine.now, hit=True
                    )
                self._send_data_on(face, served, self.processing_delay)
                return
            if decision.kind is DecisionKind.DELAYED_HIT:
                self.monitor.count("cs_disguised_hit")
                if defense is not None:
                    defense.observe_interest(
                        interest.name, face, self.engine.now, hit=True
                    )
                self._send_data_on(
                    face, served, self.processing_delay + decision.delay
                )
                return
            self.monitor.count("cs_forced_miss")
        else:
            self.monitor.count("cs_miss")
        if defense is not None:
            defense.observe_interest(
                interest.name, face, self.engine.now, hit=False
            )
        self._forward_interest(interest, face)

    def _forward_interest(self, interest: Interest, face: Face) -> None:
        existing = self.pit.lookup(interest.name)
        is_retransmission = (
            existing is not None
            and face in existing.faces
            and interest.nonce not in existing.nonces
        )
        pit_entry, is_new = self.pit.insert_or_collapse(interest, face, self.engine.now)
        if pit_entry is None:
            # Bounded PIT, drop-new policy: the interest is rejected.
            self.monitor.count("pit_overflow_drop")
            if self.defense is not None:
                self.defense.observe_pit_overflow(
                    interest.name, face, self.engine.now
                )
            self._send_nack_on(face, Nack.for_interest(interest, NACK_PIT_FULL))
            return
        if not is_new:
            self.monitor.count("pit_collapse")
            if is_retransmission and not (self.honor_scope and interest.scope_exhausted):
                # A fresh nonce from a face that already has an in-record is
                # a consumer retransmission (the earlier interest or its
                # data was lost upstream): re-forward instead of swallowing
                # it.  A *different* face with a fresh nonce is ordinary
                # aggregation and is not re-forwarded.
                for upstream in self._select_upstreams(interest.name, face):
                    self.monitor.count("interest_retransmitted")
                    self.engine.schedule_fire_and_forget(
                        self.processing_delay,
                        upstream.send_interest,
                        interest.hop(),
                    )
            return
        if self.honor_scope and interest.scope_exhausted:
            # Cannot satisfy locally and the scope budget ends here: the
            # interest dies (the consumer observes a timeout).
            self.monitor.count("scope_drop")
            self.pit.remove(interest.name)
            return
        upstreams = self._select_upstreams(interest.name, face)
        if not upstreams:
            self.monitor.count("no_route")
            self.pit.remove(interest.name)
            if self.nack_on_no_route:
                self._send_nack_on(
                    face, Nack.for_interest(interest, NACK_NO_ROUTE)
                )
            return
        self.monitor.count("pit_insert")
        pit_entry.timer = self.engine.schedule(
            interest.lifetime,
            self._on_pit_expiry,
            interest.name,
            label=f"{self.name}:pit-expiry",
        )
        for upstream in upstreams:
            self.monitor.count("interest_forwarded")
            self.engine.schedule_fire_and_forget(
                self.processing_delay,
                upstream.send_interest,
                interest.hop(),
            )

    def _select_upstreams(self, name, arrival_face: Face) -> List[Face]:
        """Next-hop faces per the configured forwarding strategy,
        excluding the face the interest arrived on."""
        hops = self.fib.longest_prefix_match(name)
        if not hops:
            return []
        candidates = [h.face for h in hops if h.face is not arrival_face]
        if not candidates:
            return []
        if self.strategy == "best-route":
            return candidates[:1]
        return candidates

    def _on_pit_expiry(self, name) -> None:
        entry = self.pit.lookup(name)
        if entry is None:
            return
        if entry.expiry > self.engine.now:
            # A collapsed interest extended the entry past the armed timer:
            # re-arm for the remainder instead of leaking the entry.
            entry.timer = self.engine.schedule(
                entry.expiry - self.engine.now,
                self._on_pit_expiry,
                name,
                label=f"{self.name}:pit-expiry",
            )
            return
        expired = self.pit.expire(name, self.engine.now)
        if expired is not None:
            self.monitor.count("pit_expired")
            if self.defense is not None:
                self.defense.observe_pit_expired(
                    name, expired.faces, self.engine.now
                )

    def _on_pit_preempted(self, entry: PitEntry) -> None:
        """A bounded PIT evicted ``entry`` to admit a new interest."""
        if entry.timer is not None and entry.timer.pending:
            entry.timer.cancel()
        self.monitor.count("pit_preempted")
        nack = Nack(name=entry.name, reason=NACK_PIT_FULL)
        for downstream in entry.faces:
            self._send_nack_on(downstream, nack)

    # ------------------------------------------------------------------
    # Data pipeline
    # ------------------------------------------------------------------
    def receive_data(self, data: Data, face: Face) -> None:
        """Process a content object arriving on ``face``."""
        if not self.up:
            self.monitor.count("down_dropped_data")
            return
        self.monitor.count("data_in")
        pit_entry = self.pit.satisfy(data.name)
        if pit_entry is None:
            # Content is never forwarded unless preceded by an interest.
            self.monitor.count("unsolicited_data")
            return
        self.monitor.count("pit_satisfied")
        if pit_entry.timer is not None and pit_entry.timer.pending:
            pit_entry.timer.cancel()
        fetch_delay = self.engine.now - pit_entry.first_arrival
        self._maybe_cache(
            data,
            fetch_delay,
            requested_private=pit_entry.all_private,
            downstreams=pit_entry.faces,
        )
        out = data.hop() if self.count_origin_hops else data
        for downstream in pit_entry.faces:
            self._send_data_on(downstream, out, self.processing_delay)

    def _maybe_cache(
        self,
        data: Data,
        fetch_delay: float,
        requested_private: bool,
        downstreams: Sequence[Face] = (),
    ) -> None:
        if self.cache_filter is not None and not self.cache_filter(data):
            self.monitor.count("cache_skipped")
            return
        is_new = data.name not in self.cs
        if (
            is_new
            and self.defense is not None
            and self.defense.veto_cache(data.name, downstreams)
        ):
            # Quarantine: content fanning out only to faces under active
            # pollution mitigation is not admitted.  No insert, no ledger
            # movement — law D stays balanced, like a strategy decline.
            self.monitor.count("cache_quarantined")
            return
        if (
            is_new
            and self._admit is not None
            and not self._admit(data.name, data.origin_hops, self, downstreams)
        ):
            # The caching strategy declined this hop: no insert, no
            # ledger movement (law D stays balanced by construction).
            self.monitor.count("cache_declined")
            return
        private = self.marking.privacy_at_insert(data, requested_private)
        entry = self.cs.insert(
            data, self.engine.now, fetch_delay=fetch_delay, private=private
        )
        if is_new:
            self.marking.annotate_entry(entry, data)
            self.scheme.on_insert(entry, private=private, now=self.engine.now)
            self.monitor.count("cs_insert")

    def _send_data_on(self, face: Face, data: Data, delay: float) -> None:
        self.monitor.count("data_out")
        if delay <= 0:
            face.send_data(data)
        else:
            self.engine.schedule_fire_and_forget(delay, face.send_data, data)

    # ------------------------------------------------------------------
    # Nack pipeline
    # ------------------------------------------------------------------
    def receive_nack(self, nack: Nack, face: Face) -> None:
        """Process a negative acknowledgement arriving from upstream."""
        if not self.up:
            self.monitor.count("down_dropped_nack")
            return
        self.monitor.count("nack_in")
        reason_counter = _NACK_IN_COUNTERS.get(nack.reason)
        if reason_counter is not None:
            self.monitor.count(reason_counter)
        entry = self.pit.remove(nack.name)
        if entry is None:
            # The entry was already satisfied, expired, or never existed.
            self.monitor.count("nack_no_pit")
            return
        self.monitor.count("pit_nacked")
        if entry.timer is not None and entry.timer.pending:
            entry.timer.cancel()
        downstream_nack = nack.hop()
        for downstream in entry.faces:
            self._send_nack_on(downstream, downstream_nack)

    def shed_pit_entry(self, name) -> bool:
        """Defense-driven load shedding: drop one PIT entry, Nack its faces.

        Used by the :mod:`repro.defense` mitigation controller to reclaim
        table space held by a detected interest flood without waiting for
        lifetimes to run out.  Counts ``pit_shed`` (a law-B resolution)
        and answers every collapsed downstream with a congestion Nack so
        honest consumers back off instead of timing out.
        """
        entry = self.pit.remove(name)
        if entry is None:
            return False
        if entry.timer is not None and entry.timer.pending:
            entry.timer.cancel()
        self.monitor.count("pit_shed")
        nack = Nack(name=entry.name, reason=NACK_CONGESTION)
        for downstream in entry.faces:
            self._send_nack_on(downstream, nack)
        return True

    def _send_nack_on(self, face: Face, nack: Nack) -> None:
        self.monitor.count("nack_out")
        reason_counter = _NACK_OUT_COUNTERS.get(nack.reason)
        if reason_counter is not None:
            self.monitor.count(reason_counter)
        if self.processing_delay <= 0:
            face.send_nack(nack)
        else:
            self.engine.schedule_fire_and_forget(
                self.processing_delay, face.send_nack, nack
            )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats_summary(self) -> Dict[str, float]:
        """Per-router overload observables.

        Keys cover the PIT (size/peak/capacity, drops, preemptions), the
        Nack plane, admission control, and the CS (size/capacity,
        evictions, stale drops) — everything the overload experiments
        read, without ad-hoc prints.
        """
        summary = {
            "pit_size": float(len(self.pit)),
            "pit_peak_size": float(self.pit.peak_size),
            "pit_capacity": (
                float(self.pit.capacity) if self.pit.capacity is not None else float("inf")
            ),
            "pit_collapsed": float(self.pit.collapsed),
            "pit_expired": float(self.pit.expired),
            "pit_overflow_dropped": float(self.pit.overflow_dropped),
            "pit_overflow_evicted": float(self.pit.overflow_evicted),
            "rate_limited": float(self.monitor.counter("rate_limited")),
            "nack_in": float(self.monitor.counter("nack_in")),
            "nack_out": float(self.monitor.counter("nack_out")),
            "defense_throttled": float(self.monitor.counter("defense_throttled")),
            "cache_quarantined": float(self.monitor.counter("cache_quarantined")),
            "pit_shed": float(self.monitor.counter("pit_shed")),
            "cs_size": float(len(self.cs)),
            "cs_capacity": (
                float(self.cs.capacity) if self.cs.capacity is not None else float("inf")
            ),
            "cs_evictions": float(self.cs.evictions),
            "cs_stale_drops": float(self.cs.stale_drops),
        }
        # Per-reason Nack disaggregation (satellite of the defense loop:
        # the flood detector needs pit-full distinguished from congestion).
        for counters in (_NACK_IN_COUNTERS, _NACK_OUT_COUNTERS):
            for key in counters.values():
                summary[key] = float(self.monitor.counter(key))
        return summary

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def flush_cache(self) -> None:
        """Empty the CS and reset scheme state (between attack trials)."""
        self.cs.clear()
        self.scheme.reset()
        if self.caching is not None:
            self.caching.reset()

    # ------------------------------------------------------------------
    # Fault injection (see repro.faults)
    # ------------------------------------------------------------------
    def crash(self, mode: str = "flush") -> None:
        """Take the router down.

        Pending interests are lost in either mode (their timers are
        cancelled, the PIT emptied).  ``mode="flush"`` also wipes the
        Content Store and scheme state (cold restart); ``mode="warm"``
        models a deployment that persists its CS across restarts.
        """
        if mode not in ("flush", "warm"):
            raise ValueError(f"crash mode must be 'flush' or 'warm', got {mode!r}")
        if not self.up:
            return
        self.up = False
        self.monitor.count("crashes")
        drained = self.pit.drain()
        self.monitor.count("pit_drained", len(drained))
        for entry in drained:
            if entry.timer is not None and entry.timer.pending:
                entry.timer.cancel()
        if mode == "flush":
            self.flush_cache()

    def restart(self) -> None:
        """Bring a crashed router back up (CS per the crash mode)."""
        if self.up:
            return
        self.up = True
        self.monitor.count("restarts")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Forwarder({self.name}, cs={len(self.cs)}, pit={len(self.pit)}, "
            f"scheme={self.scheme.name})"
        )
