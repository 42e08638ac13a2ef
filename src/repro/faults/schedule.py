"""Deterministic fault schedules driven by the simulation engine.

A :class:`FaultSchedule` is a declarative list of attack windows
(:mod:`repro.faults.adversarial`) bound to a
:class:`~repro.ndn.network.Network`.  ``apply`` validates every window and
schedules plain engine events, so attack timing obeys the same
determinism rules as every other event: given the same schedule,
topology, and root seed, two runs are bit-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, List

from repro.faults.errors import FaultConfigError

if TYPE_CHECKING:  # import only for typing: faults must not import ndn at runtime
    from repro.ndn.network import Network


class FaultSchedule:
    """An ordered collection of faults, applied to a network as events.

    A fault is any object exposing ``plan(network) -> [(time, action,
    label), ...]``; the window types in :mod:`repro.faults.adversarial`
    are the ones the harnesses build.
    """

    def __init__(self, faults: Iterable[object] = ()) -> None:
        self._faults: List[object] = []
        for fault in faults:
            self.add(fault)

    def add(self, fault: object) -> "FaultSchedule":
        """Append one fault; returns self for chaining."""
        if not callable(getattr(fault, "plan", None)):
            raise FaultConfigError(
                f"unknown fault type {type(fault).__name__} "
                "(expected an object with .plan(network))"
            )
        self._faults.append(fault)
        return self

    def __len__(self) -> int:
        return len(self._faults)

    def __iter__(self) -> Iterator[object]:
        return iter(self._faults)

    @property
    def faults(self) -> List[object]:
        """The faults in insertion order (copy)."""
        return list(self._faults)

    # ------------------------------------------------------------------
    # Binding to a network
    # ------------------------------------------------------------------
    def apply(self, network: "Network") -> int:
        """Validate every fault against ``network`` and schedule its
        events on the network's engine; returns the event count.

        Each fault's ``plan`` raises :class:`FaultConfigError` for unknown
        entity names or windows that start in the simulated past.  Every
        fault is planned *before* any event is scheduled, so a bad
        schedule never partially applies.
        """
        plans = [fault.plan(network) for fault in self._faults]
        scheduled = 0
        for plan in plans:
            for time, action, label in plan:
                network.engine.schedule_at(time, action, label=label)
                scheduled += 1
        return scheduled

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"FaultSchedule(faults={len(self._faults)})"
