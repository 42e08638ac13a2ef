"""The per-router defense agent: detectors + controller behind the hooks.

:class:`DefenseAgent` is the object a :class:`~repro.ndn.forwarder.
Forwarder` holds in its ``defense`` slot.  It implements the four hook
methods the forwarder calls —

* ``allow_interest(interest, face, now)`` — mitigation throttle gate,
* ``observe_interest(name, face, now, hit)`` — feeds every detector,
* ``observe_pit_expired(name, faces, now)`` — flood attribution,
* ``veto_cache(name, downstreams)`` — pollution quarantine veto —

and owns the alarm log plus (when mitigation is enabled) the
:class:`~repro.defense.controller.MitigationController`.  De-escalation
is polled opportunistically from the observe path on a coarse interval,
so the agent needs no timer wiring of its own: it works identically
under the discrete-event engine and the real-time asyncio engine.

Presets (the ``defense`` axis of the frontier sweep):

* ``off``      — no agent installed (the seed data path, bit-identical),
* ``static``   — no agent; a static per-face rate limit only,
* ``monitor``  — detectors run and alarms log, nothing is mitigated
  (measures pure detection latency and false-positive rate),
* ``adaptive`` — the full closed loop (detect → mitigate → de-escalate).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.defense.alarms import Alarm, AlarmLog
from repro.defense.controller import MitigationController, MitigationPolicy
from repro.defense.detectors import (
    Detector,
    FloodDetector,
    PollutionDetector,
    ProbeDetector,
)

if TYPE_CHECKING:  # typing only
    from repro.ndn.forwarder import Forwarder
    from repro.ndn.link import Face
    from repro.ndn.name import Name
    from repro.ndn.network import Network
    from repro.ndn.packets import Interest

#: The defense schemes the experiments sweep over.
DEFENSE_PRESETS = ("off", "static", "monitor", "adaptive")

#: De-escalation poll cadence (ms of simulated/real time).
CHECK_INTERVAL = 250.0


@dataclass(frozen=True)
class DefenseConfig:
    """Configuration for one router's defense agent.

    ``mitigate`` arms the controller (off = monitor-only).  The agent
    always runs the pollution, flood and probe detectors with their
    default thresholds, under the default :class:`MitigationPolicy`.
    """

    mitigate: bool = True

    @classmethod
    def preset(cls, name: str) -> Optional["DefenseConfig"]:
        """The config for a named preset; None when no agent is installed
        (``off`` and ``static`` run without a defense agent)."""
        if name not in DEFENSE_PRESETS:
            raise ValueError(
                f"unknown defense preset {name!r}; choose from {DEFENSE_PRESETS}"
            )
        if name in ("off", "static"):
            return None
        if name == "monitor":
            return cls(mitigate=False)
        return cls()

    def monitoring_only(self) -> "DefenseConfig":
        """This config with mitigation disarmed."""
        return replace(self, mitigate=False)


class DefenseAgent:
    """Detection + adaptive mitigation for one forwarder."""

    def __init__(
        self, forwarder: "Forwarder", config: Optional[DefenseConfig] = None
    ) -> None:
        self.forwarder = forwarder
        self.config = config if config is not None else DefenseConfig()
        self.log = AlarmLog()
        self._pollution = PollutionDetector()
        self._flood = FloodDetector()
        self.detectors: List[Detector] = [self._pollution, self._flood, ProbeDetector()]
        self.controller: Optional[MitigationController] = (
            MitigationController(forwarder, MitigationPolicy())
            if self.config.mitigate
            else None
        )
        self._next_deescalate = 0.0

    # ------------------------------------------------------------------
    # Forwarder hooks
    # ------------------------------------------------------------------
    def allow_interest(
        self, interest: "Interest", face: "Face", now: float
    ) -> bool:
        """Throttle gate: False rejects the interest (congestion Nack)."""
        controller = self.controller
        if controller is None or not controller.active:
            return True
        return controller.allow_interest(face, now)

    def observe_interest(
        self, name: "Name", face: "Face", now: float, hit: bool
    ) -> None:
        """Feed one admitted interest to every detector."""
        label = face.label
        for detector in self.detectors:
            fired = detector.observe_interest(name, label, now, hit)
            if fired is not None:
                self._raise(detector.kind, label, now, fired)
        if self.controller is not None and now >= self._next_deescalate:
            self._next_deescalate = now + CHECK_INTERVAL
            self.controller.deescalate(now)

    def observe_pit_expired(
        self, name: "Name", faces: Sequence["Face"], now: float
    ) -> None:
        """Attribute one unsatisfied PIT expiry to its waiting faces."""
        labels = [face.label for face in faces]
        for detector in self.detectors:
            fired = detector.observe_pit_expired(name, labels, now)
            if fired is not None:
                label = labels[0] if labels else ""
                if detector is self._flood:
                    label = self._flood.last_offender() or label
                self._raise(detector.kind, label, now, fired)

    def observe_pit_overflow(
        self, name: "Name", face: "Face", now: float
    ) -> None:
        """A bounded PIT rejected this face's interest (flood evidence)."""
        label = face.label
        for detector in self.detectors:
            fired = detector.observe_pit_overflow(name, label, now)
            if fired is not None:
                self._raise(detector.kind, label, now, fired)

    def veto_cache(self, name: "Name", downstreams: Sequence["Face"]) -> bool:
        """True blocks CS admission (pollution quarantine)."""
        controller = self.controller
        if controller is None or not controller.active:
            return False
        return controller.veto_cache(name, downstreams)

    # ------------------------------------------------------------------
    # Alarm plumbing
    # ------------------------------------------------------------------
    def _raise(self, kind: str, face_label: str, now: float, fired) -> None:
        severity, detail = fired
        alarm = Alarm(
            kind=kind,
            router=self.forwarder.name,
            face_label=face_label,
            time=now,
            severity=severity,
            detail=detail,
        )
        self.log.record(alarm)
        if self.controller is not None:
            purge = ()
            if kind == "pollution":
                purge = self._pollution.recent_first_seen(face_label)
            self.controller.on_alarm(alarm, now, purge_names=purge)

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------
    @property
    def mitigations(self) -> list:
        """The controller's audit ledger ([] in monitor-only mode)."""
        return self.controller.mitigations if self.controller is not None else []

    def status(self) -> Dict[str, object]:
        """JSON-ready snapshot (daemon ``alarms`` mgmt command)."""
        return {
            "router": self.forwarder.name,
            "mitigate": self.controller is not None,
            "alarms": self.log.total,
            "suspects": (
                self.controller.suspect_labels()
                if self.controller is not None
                else []
            ),
            "mitigations": len(self.mitigations),
            "recent_alarms": [str(a) for a in self.log.alarms[-8:]],
        }

    def reset(self) -> None:
        """Fresh detection + mitigation state (between trials)."""
        for detector in self.detectors:
            detector.reset()
        if self.controller is not None:
            self.controller.reset()
        self.log = AlarmLog()
        self._next_deescalate = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"DefenseAgent({self.forwarder.name}, alarms={self.log.total}, "
            f"mitigate={self.controller is not None})"
        )


def install_defense(
    forwarder: "Forwarder", config: Optional[DefenseConfig] = None
) -> DefenseAgent:
    """Create and attach a defense agent to one forwarder."""
    agent = DefenseAgent(forwarder, config)
    forwarder.defense = agent
    return agent


def uninstall_defense(forwarder: "Forwarder") -> None:
    """Detach any defense agent (restores the undefended hot path)."""
    forwarder.defense = None


def install_network_defense(
    network: "Network",
    config: Optional[DefenseConfig] = None,
    routers: Optional[Sequence[str]] = None,
) -> Dict[str, DefenseAgent]:
    """Attach agents to ``routers`` (default: every router) of a network.

    Edge routers are the natural deployment point — per-face attribution
    is meaningful where attacker and honest traffic arrive on *different*
    faces; at aggregation routers a suspect upstream face carries mixed
    traffic and throttling it punishes bystanders.  Pass the edge subset
    explicitly for multi-hop topologies.
    """
    names = list(routers) if routers is not None else list(network.routers)
    agents: Dict[str, DefenseAgent] = {}
    for name in names:
        agents[name] = install_defense(network.routers[name], config)
    return agents
