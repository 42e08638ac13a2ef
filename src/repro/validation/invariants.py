"""Conservation-law invariants over live forwarder state.

The forwarder classifies every admitted interest exactly once, which
makes the following laws checkable at any instant the engine is quiescent
(no packet half-processed — i.e. between events, or after a run):

**A — interest conservation** (per router)::

    interest_in == rate_limited + defense_throttled + cs_hit
                   + cs_disguised_hit + pit_overflow_drop + pit_collapse
                   + scope_drop + no_route + pit_insert

**B — PIT ledger** (per router)::

    pit_insert == pit_satisfied + pit_expired + pit_nacked
                  + pit_preempted + pit_shed + len(pit)

**C — capacity bounds**: ``len(pit) <= pit.capacity`` (and the peak high
water mark too), ``len(cs) <= cs.capacity``.

**D — CS ledger**: ``cs.insertions == cs.removed + len(cs)``.

Law B holds only between events — a forwarded interest whose expiry timer
is in flight is still ``len(pit)`` — which is why the periodic monitor
(:meth:`InvariantChecker.install`) checks from *scheduled events* (the
engine is quiescent inside an event callback) rather than from arbitrary
python code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # typing only — avoid import cycles
    from repro.ndn.forwarder import Forwarder
    from repro.ndn.network import Network


@dataclass(frozen=True)
class Violation:
    """One broken invariant on one router."""

    router: str
    law: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.router}] {self.law}: {self.detail}"


class InvariantError(AssertionError):
    """Raised by :meth:`InvariantChecker.assert_ok` on any violation."""

    def __init__(self, violations: List[Violation]) -> None:
        self.violations = violations
        lines = "\n".join(f"  - {v}" for v in violations)
        super().__init__(
            f"{len(violations)} invariant violation(s):\n{lines}"
        )


class InvariantChecker:
    """Audits conservation laws A–D over forwarders.

    Violations found by any check accumulate in :attr:`violations`;
    :attr:`checks_run` counts completed audits (useful to prove the
    monitor actually ran when a run reports zero violations).
    """

    def __init__(self) -> None:
        self.violations: List[Violation] = []
        self.checks_run = 0

    # ------------------------------------------------------------------
    # Core audits
    # ------------------------------------------------------------------
    def check_forwarder(self, forwarder: "Forwarder") -> List[Violation]:
        """Audit one router; returns (and accumulates) its violations."""
        found: List[Violation] = []
        name = forwarder.name
        c = forwarder.monitor.counter

        ingress = c("interest_in")
        classified = (
            c("rate_limited")
            + c("defense_throttled")
            + c("cs_hit")
            + c("cs_disguised_hit")
            + c("pit_overflow_drop")
            + c("pit_collapse")
            + c("scope_drop")
            + c("no_route")
            + c("pit_insert")
        )
        if ingress != classified:
            found.append(
                Violation(
                    router=name,
                    law="A:interest-conservation",
                    detail=f"interest_in={ingress} but outcomes sum to {classified}",
                )
            )

        inserted = c("pit_insert")
        resolved = (
            c("pit_satisfied")
            + c("pit_expired")
            + c("pit_nacked")
            + c("pit_preempted")
            + c("pit_shed")
            + len(forwarder.pit)
        )
        if inserted != resolved:
            found.append(
                Violation(
                    router=name,
                    law="B:pit-ledger",
                    detail=(
                        f"pit_insert={inserted} but resolutions + pending "
                        f"sum to {resolved} (pending={len(forwarder.pit)})"
                    ),
                )
            )

        pit_cap = forwarder.pit.capacity
        if pit_cap is not None:
            if len(forwarder.pit) > pit_cap:
                found.append(
                    Violation(
                        router=name,
                        law="C:pit-capacity",
                        detail=f"size {len(forwarder.pit)} > capacity {pit_cap}",
                    )
                )
            if forwarder.pit.peak_size > pit_cap:
                found.append(
                    Violation(
                        router=name,
                        law="C:pit-capacity",
                        detail=(
                            f"peak size {forwarder.pit.peak_size} "
                            f"> capacity {pit_cap}"
                        ),
                    )
                )
        cs_cap = forwarder.cs.capacity
        if cs_cap is not None and len(forwarder.cs) > cs_cap:
            found.append(
                Violation(
                    router=name,
                    law="C:cs-capacity",
                    detail=f"size {len(forwarder.cs)} > capacity {cs_cap}",
                )
            )

        balance = forwarder.cs.removed + len(forwarder.cs)
        if not forwarder.cs.ledger_balanced:
            found.append(
                Violation(
                    router=name,
                    law="D:cs-ledger",
                    detail=(
                        f"insertions={forwarder.cs.insertions} but "
                        f"removed + size = {balance}"
                    ),
                )
            )

        self.violations.extend(found)
        self.checks_run += 1
        return found

    def check_network(self, network: "Network") -> List[Violation]:
        """Audit every router of ``network``; returns new violations."""
        found: List[Violation] = []
        for router in network.routers.values():
            found.extend(self.check_forwarder(router))
        return found

    # ------------------------------------------------------------------
    # Ergonomics
    # ------------------------------------------------------------------
    def assert_ok(self, network: Optional["Network"] = None) -> None:
        """Check ``network`` (when given), then raise on any accumulated
        violation — including ones found by earlier periodic checks."""
        if network is not None:
            self.check_network(network)
        if self.violations:
            raise InvariantError(list(self.violations))

    def install(
        self, network: "Network", interval: float, horizon: float
    ) -> int:
        """Schedule periodic audits every ``interval`` ms up to ``horizon``.

        Checks run as ordinary engine events, so they observe quiescent
        state (law B is exact there).  Violations accumulate silently;
        call :meth:`assert_ok` (or inspect :attr:`violations`) at end of
        run.  Returns the number of audits scheduled.
        """
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        count = 0
        t = network.engine.now + interval
        while t <= horizon:
            network.engine.schedule_at(
                t,
                lambda n=network: self.check_network(n),
                label="invariant-check",
            )
            count += 1
            t += interval
        return count

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"InvariantChecker(checks={self.checks_run}, "
            f"violations={len(self.violations)})"
        )
