"""Deterministic fault schedules driven by the simulation engine.

A :class:`FaultSchedule` is a declarative list of fault windows — link
outages, delay spikes, burst-loss episodes, router crash/restart — bound
to a :class:`~repro.ndn.network.Network` by name.  ``apply`` validates
every reference and schedules plain engine events, so fault timing obeys
the same determinism rules as every other event: given the same schedule,
topology, and root seed, two runs are bit-identical.

Faults reference links by their network key (``"a<->b"`` as stored in
``Network.links``) and routers by entity name.  Schedules themselves are
data; the helper :func:`random_link_flaps` *generates* a schedule from a
seeded RNG, making randomized chaos scenarios reproducible from one seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.faults.errors import FaultConfigError
from repro.faults.loss import GilbertElliottLoss, LossModel

if TYPE_CHECKING:  # import only for typing: faults must not import ndn at runtime
    from repro.ndn.network import Network


def _check_window(kind: str, start: float, end: float) -> None:
    # Written as negations so a NaN fails them too.
    if not start >= 0:
        raise FaultConfigError(f"{kind} start must be >= 0, got {start}")
    if not end > start:
        raise FaultConfigError(
            f"{kind} window must have end > start, got [{start}, {end})"
        )


@dataclass(frozen=True)
class LinkDownWindow:
    """The link carries nothing during ``[start, end)`` (both directions)."""

    link: str
    start: float
    end: float

    def __post_init__(self) -> None:
        _check_window("LinkDownWindow", self.start, self.end)


@dataclass(frozen=True)
class DelaySpikeWindow:
    """Every packet on the link pays ``extra_delay`` ms extra during the
    window — a congestion episode or a rerouting transient."""

    link: str
    start: float
    end: float
    extra_delay: float = 50.0

    def __post_init__(self) -> None:
        _check_window("DelaySpikeWindow", self.start, self.end)
        if not 0 < self.extra_delay < math.inf:
            raise FaultConfigError(
                f"extra_delay must be finite and > 0, got {self.extra_delay}"
            )


@dataclass(frozen=True)
class BurstLossWindow:
    """A Gilbert–Elliott loss episode on the link during the window.

    The model is installed (state reset) at ``start`` and the link's
    previous loss behavior restored at ``end``.
    """

    link: str
    start: float
    end: float
    model: LossModel = field(default_factory=lambda: GilbertElliottLoss(0.05, 0.25))

    def __post_init__(self) -> None:
        _check_window("BurstLossWindow", self.start, self.end)


@dataclass(frozen=True)
class RouterCrash:
    """The router goes down at ``at`` and (optionally) restarts.

    ``mode="flush"`` models a cold restart: the Content Store and scheme
    state are wiped.  ``mode="warm"`` models a restart that restores the
    persisted cache — entries survive, pending interests do not.
    """

    router: str
    at: float
    restart_at: Optional[float] = None
    mode: str = "flush"

    def __post_init__(self) -> None:
        if not self.at >= 0:
            raise FaultConfigError(f"crash time must be >= 0, got {self.at}")
        if self.restart_at is not None and not self.restart_at > self.at:
            raise FaultConfigError(
                f"restart_at {self.restart_at} must be after crash at {self.at}"
            )
        if self.mode not in ("flush", "warm"):
            raise FaultConfigError(
                f"mode must be 'flush' or 'warm', got {self.mode!r}"
            )


Fault = Union[LinkDownWindow, DelaySpikeWindow, BurstLossWindow, RouterCrash]


class FaultSchedule:
    """An ordered collection of faults, applied to a network as events."""

    def __init__(self, faults: Iterable[Fault] = ()) -> None:
        self._faults: List[Fault] = []
        for fault in faults:
            self.add(fault)

    def add(self, fault: Fault) -> "FaultSchedule":
        """Append one fault; returns self for chaining.

        Besides the built-in window types, any object exposing
        ``plan(network) -> [(time, action, label), ...]`` is accepted —
        the extension point the adversarial load generators in
        :mod:`repro.faults.adversarial` use.
        """
        if not isinstance(
            fault, (LinkDownWindow, DelaySpikeWindow, BurstLossWindow, RouterCrash)
        ) and not callable(getattr(fault, "plan", None)):
            raise FaultConfigError(
                f"unknown fault type {type(fault).__name__} "
                "(expected a built-in fault or an object with .plan(network))"
            )
        self._faults.append(fault)
        return self

    def __len__(self) -> int:
        return len(self._faults)

    def __iter__(self) -> Iterator[Fault]:
        return iter(self._faults)

    @property
    def faults(self) -> List[Fault]:
        """The faults in insertion order (copy)."""
        return list(self._faults)

    # ------------------------------------------------------------------
    # Binding to a network
    # ------------------------------------------------------------------
    def apply(self, network: "Network") -> int:
        """Validate every fault against ``network`` and schedule its
        events on the network's engine; returns the event count.

        Raises :class:`FaultConfigError` for unknown link/router names or
        windows that start in the simulated past — all *before* any event
        is scheduled, so a bad schedule never partially applies.
        """
        plans = [self._plan(fault, network) for fault in self._faults]
        scheduled = 0
        for plan in plans:
            for time, action, label in plan:
                network.engine.schedule_at(time, action, label=label)
                scheduled += 1
        return scheduled

    def _plan(self, fault: Fault, network: "Network"):
        now = network.engine.now
        if not isinstance(
            fault, (LinkDownWindow, DelaySpikeWindow, BurstLossWindow, RouterCrash)
        ):
            # Extension fault (e.g. an adversarial load window): it plans
            # its own events and does its own validation.
            return fault.plan(network)
        if isinstance(fault, RouterCrash):
            routers = network.routers
            if fault.router not in routers:
                raise FaultConfigError(
                    f"RouterCrash references unknown router {fault.router!r}"
                )
            if fault.at < now:
                raise FaultConfigError(
                    f"RouterCrash at t={fault.at} is in the past (now={now})"
                )
            router = routers[fault.router]
            plan = [
                (
                    fault.at,
                    lambda r=router, m=fault.mode: r.crash(mode=m),
                    f"fault:crash:{fault.router}",
                )
            ]
            if fault.restart_at is not None:
                plan.append(
                    (
                        fault.restart_at,
                        lambda r=router: r.restart(),
                        f"fault:restart:{fault.router}",
                    )
                )
            return plan

        link = network.links.get(fault.link)
        if link is None:
            raise FaultConfigError(
                f"{type(fault).__name__} references unknown link {fault.link!r}; "
                f"known links: {sorted(network.links)}"
            )
        if fault.start < now:
            raise FaultConfigError(
                f"{type(fault).__name__} starts at t={fault.start} in the past "
                f"(now={now})"
            )
        if isinstance(fault, LinkDownWindow):
            return [
                (fault.start, link.set_down, f"fault:link-down:{fault.link}"),
                (fault.end, link.set_up, f"fault:link-up:{fault.link}"),
            ]
        if isinstance(fault, DelaySpikeWindow):
            extra = fault.extra_delay
            return [
                (
                    fault.start,
                    lambda l=link, e=extra: l.add_extra_delay(e),
                    f"fault:spike-on:{fault.link}",
                ),
                (
                    fault.end,
                    lambda l=link, e=extra: l.remove_extra_delay(e),
                    f"fault:spike-off:{fault.link}",
                ),
            ]
        # BurstLossWindow: install at start (fresh state), restore at end.
        def _install(l=link, m=fault.model):
            m.reset()
            l.push_loss_model(m)

        def _restore(l=link, m=fault.model):
            l.pop_loss_model(m)

        return [
            (fault.start, _install, f"fault:burst-on:{fault.link}"),
            (fault.end, _restore, f"fault:burst-off:{fault.link}"),
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"FaultSchedule(faults={len(self._faults)})"


def random_link_flaps(
    rng: np.random.Generator,
    links: Sequence[str],
    horizon: float,
    mean_uptime: float,
    mean_downtime: float,
    settle_time: float = 0.0,
) -> FaultSchedule:
    """A seed-reproducible schedule of alternating up/down windows.

    Each link flaps independently: exponential uptime (mean
    ``mean_uptime`` ms) followed by exponential downtime (mean
    ``mean_downtime`` ms), repeated until ``horizon``.  ``settle_time``
    keeps the first ``settle_time`` ms fault-free (warm-up).  The same
    RNG state always yields the same schedule.
    """
    if horizon <= 0:
        raise FaultConfigError(f"horizon must be > 0, got {horizon}")
    if mean_uptime <= 0 or mean_downtime <= 0:
        raise FaultConfigError("mean_uptime and mean_downtime must be > 0")
    schedule = FaultSchedule()
    for link in links:
        t = settle_time + rng.exponential(mean_uptime)
        while t < horizon:
            down_for = rng.exponential(mean_downtime)
            end = min(t + down_for, horizon)
            if end > t:
                schedule.add(LinkDownWindow(link=link, start=t, end=end))
            t = end + rng.exponential(mean_uptime)
    return schedule
