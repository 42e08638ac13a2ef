"""The forwarder daemon: one real NDN node as an asyncio process.

A :class:`ForwarderDaemon` wraps the *unchanged*
:class:`repro.ndn.forwarder.Forwarder` — Content Store, privacy scheme,
bounded PIT, token-bucket admission, Nack plane — behind
:class:`~repro.deploy.faces.AsyncUdpFace` sockets and a
:class:`~repro.deploy.clock.RealTimeEngine` clock, plus the operational
surface a process needs:

* face and route management (callable locally or over the TCP management
  channel, :mod:`repro.deploy.mgmt`);
* live privacy-scheme swap by name (one of :data:`DAEMON_SCHEMES`),
  preserving the CS evict-listener wiring;
* **drain mode** — new interests are refused with a congestion Nack
  while in-flight PIT entries are allowed to complete, the first phase of
  graceful shutdown;
* health/readiness probes and a counter snapshot for monitoring, with
  the :mod:`repro.validation` conservation laws checkable on the live
  counters at any quiescent moment.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.schemes.base import CacheScheme
from repro.core.schemes.registry import SchemeError, SchemeSpec
from repro.deploy.clock import RealTimeEngine
from repro.deploy.faces import Address, AsyncUdpFace
from repro.ndn.admission import InterestRateLimit
from repro.ndn.errors import TopologyError
from repro.ndn.forwarder import Forwarder
from repro.ndn.name import Name, name_of
from repro.ndn.network import Network
from repro.ndn.packets import NACK_CONGESTION, Interest, Nack
from repro.sim.rng import RngRegistry

#: The schemes a daemon runs, by mgmt-channel name.  The two random
#: caches use small demo parameters, far weaker than the sweeps':
#: uniform(K=8) is (1, 0, 0.25)-private and guarantees nothing from
#: k = 4 on.  They stay until the perf ledger's ``daemon_loopback``
#: workload, which runs the daemon's "uniform", is re-pinned.
DAEMON_SCHEMES: Dict[str, SchemeSpec] = {
    "no-privacy": SchemeSpec("no-privacy"),
    "uniform": SchemeSpec("uniform", {"K": 8}),
    "exponential": SchemeSpec("exponential", {"alpha": 0.5, "K": 16}),
    "always-delay": SchemeSpec("always-delay"),
}


def daemon_scheme(name: str) -> SchemeSpec:
    """The :data:`DAEMON_SCHEMES` spec called ``name``."""
    if name not in DAEMON_SCHEMES:
        raise SchemeError(f"unknown scheme {name!r}; a daemon runs {sorted(DAEMON_SCHEMES)}")
    return DAEMON_SCHEMES[name]


def make_scheme(name: str, rng: Optional[np.random.Generator] = None) -> CacheScheme:
    """Build a privacy scheme by mgmt-channel name."""
    return daemon_scheme(name).build(rng)


@dataclass
class DaemonConfig:
    """Everything a forwarder daemon needs to come up.

    The defaults give a hardened node: bounded PIT with Nack-on-overflow,
    per-face admission control, and Nacks for routeless interests — the
    overload plane engaged from the start, so the daemon degrades by
    refusing load instead of growing queues.  The rest of the forwarder
    is fixed: an LRU Content Store, a drop-new PIT, best-route
    forwarding, scope honoured, no processing delay, and a clock that
    runs at wall speed.
    """

    name: str = "ndn-daemon"
    seed: int = 0
    scheme: str = "no-privacy"
    cs_capacity: Optional[int] = 4096
    pit_capacity: Optional[int] = 4096
    rate_limit: Optional[InterestRateLimit] = field(
        default_factory=lambda: InterestRateLimit(rate=5000.0, burst=1000.0)
    )
    #: Online defense preset (``monitor``/``adaptive``; None or
    #: ``off``/``static`` run without a defense agent).
    defense: Optional[str] = None


def add_forwarder(net: Network, config: DaemonConfig) -> Forwarder:
    """Add the forwarder ``config`` describes to ``net`` as a router.

    The one place a :class:`DaemonConfig` becomes a forwarder: the daemon
    builds its own through a one-router network on its real-time engine,
    and the simulated geo scenario builds its VPN exit and CDN edge here,
    so both run the same CS, scheme stream (``scheme:{name}`` of the
    network's registry), PIT bound, admission limit and Nack plane.
    """
    return net.add_router(
        config.name,
        capacity=config.cs_capacity,
        scheme=make_scheme(config.scheme, net.rng.stream(f"scheme:{config.name}")),
        pit_capacity=config.pit_capacity,
        rate_limit=config.rate_limit,
        nack_on_no_route=True,
    )


class ForwarderDaemon:
    """A supervised real-socket NDN forwarder."""

    def __init__(self, config: Optional[DaemonConfig] = None) -> None:
        self.config = config if config is not None else DaemonConfig()
        self.rng = RngRegistry(self.config.seed)
        self.engine: Optional[RealTimeEngine] = None
        self.forwarder: Optional[Forwarder] = None
        self.defense_agent = None  # DefenseAgent when a preset is active
        self.faces: Dict[int, AsyncUdpFace] = {}
        self.draining = False
        self.ready = False
        self.drained_interests = 0
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ForwarderDaemon":
        """Build the engine + forwarder on the running loop."""
        if self._started:
            return self
        cfg = self.config
        self.engine = RealTimeEngine(asyncio.get_running_loop())
        self.forwarder = add_forwarder(Network(engine=self.engine, rng=self.rng), cfg)
        if cfg.defense is not None:
            self.set_defense(cfg.defense)
        self._started = True
        self.ready = True
        return self

    async def add_udp_face(
        self,
        local: Address = ("127.0.0.1", 0),
        peer: Optional[Address] = None,
        label: str = "",
    ) -> AsyncUdpFace:
        """Bind a new UDP face and register it with the forwarder."""
        if self.forwarder is None:
            raise TopologyError("daemon not started")
        face = await AsyncUdpFace.create(
            self.forwarder,
            local=local,
            peer=peer,
            label=label or f"{self.config.name}:face{len(self.faces)}",
        )
        face.interest_gate = self._admit_interest
        self.forwarder.faces.append(face)
        self.faces[face.face_id] = face
        return face

    async def stop(self) -> None:
        """Close every face (mgmt channel is owned by the supervisor)."""
        self.ready = False
        for face in list(self.faces.values()):
            await face.close()

    # ------------------------------------------------------------------
    # Drain / graceful degradation
    # ------------------------------------------------------------------
    def _admit_interest(self, interest: Interest, face: AsyncUdpFace) -> bool:
        """Face-level gate: in drain mode, refuse with a congestion Nack."""
        if not self.draining:
            return True
        self.drained_interests += 1
        face.send_nack(Nack.for_interest(interest, NACK_CONGESTION))
        return False

    def drain(self) -> None:
        """Stop admitting new interests; in-flight entries complete."""
        self.draining = True
        self.ready = False

    def undrain(self) -> None:
        """Resume admitting interests."""
        self.draining = False
        self.ready = self._started

    async def wait_pit_drained(self, timeout_ms: float = 2000.0) -> bool:
        """Wait (bounded) for the PIT to empty; True when it drained."""
        if self.forwarder is None:
            return True
        deadline = asyncio.get_running_loop().time() + timeout_ms / 1000.0
        while len(self.forwarder.pit) > 0:
            if asyncio.get_running_loop().time() >= deadline:
                return False
            await asyncio.sleep(0.01)
        return True

    # ------------------------------------------------------------------
    # Management operations (local API; mgmt.py exposes them over TCP)
    # ------------------------------------------------------------------
    def add_route(self, prefix, face_id: int, cost: int = 0) -> None:
        """Install a FIB route toward the face with ``face_id``."""
        face = self._face(face_id)
        self.forwarder.fib.add_route(name_of(prefix), face, cost)

    def remove_route(self, prefix, face_id: int) -> None:
        """Remove a FIB route."""
        face = self._face(face_id)
        self.forwarder.fib.remove_route(name_of(prefix), face)

    def set_scheme(self, scheme_name: str) -> SchemeSpec:
        """Swap the privacy scheme live, preserving listener wiring;
        returns the spec now running.

        The CS is flushed: per-entry scheme state (k_C counters) does not
        transfer between schemes, and a half-initialized cache would
        leak exactly the timing signal the schemes exist to hide.
        """
        if self.forwarder is None:
            raise TopologyError("daemon not started")
        spec = daemon_scheme(scheme_name)
        new = spec.build(self.rng.stream(f"scheme:{self.config.name}:{scheme_name}"))
        old = self.forwarder.scheme
        self.forwarder.flush_cache()
        self.forwarder.cs.remove_evict_listener(old.on_evict)
        self.forwarder.cs.add_evict_listener(new.on_evict)
        self.forwarder.scheme = new
        self.config.scheme = scheme_name
        return spec

    def set_defense(self, preset: str):
        """Install (or remove) the online defense agent by preset name.

        ``monitor`` and ``adaptive`` attach a
        :class:`~repro.defense.agent.DefenseAgent` to the live forwarder;
        ``off``/``static`` detach any agent, restoring the undefended
        hot path.  Returns the agent (None when detached).
        """
        from repro.defense import DefenseConfig, install_defense, uninstall_defense

        if self.forwarder is None:
            raise TopologyError("daemon not started")
        config = DefenseConfig.preset(preset)
        if config is None:
            uninstall_defense(self.forwarder)
            self.defense_agent = None
        else:
            self.defense_agent = install_defense(self.forwarder, config)
        self.config.defense = preset
        return self.defense_agent

    def defense_status(self) -> Dict[str, object]:
        """Alarm/mitigation snapshot for the mgmt ``alarms`` command."""
        if self.defense_agent is None:
            return {"installed": False, "preset": self.config.defense}
        status = self.defense_agent.status()
        status["installed"] = True
        status["preset"] = self.config.defense
        return status

    def _face(self, face_id: int) -> AsyncUdpFace:
        try:
            return self.faces[face_id]
        except KeyError:
            raise TopologyError(f"unknown face id {face_id}") from None

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        """Liveness snapshot for the mgmt ``health`` command."""
        fwd = self.forwarder
        return {
            "name": self.config.name,
            "up": fwd is not None,
            "ready": self.ready,
            "draining": self.draining,
            "faces": len(self.faces),
            "faces_alive": sum(1 for f in self.faces.values() if not f.closed),
            "pit": len(fwd.pit) if fwd else 0,
            "cs": len(fwd.cs) if fwd else 0,
            "now_ms": self.engine.now if self.engine else 0.0,
        }

    def stats(self) -> Dict[str, object]:
        """Counters: forwarder summary + monitor counters + per-face."""
        fwd = self.forwarder
        if fwd is None:
            return {"started": False}
        return {
            "name": self.config.name,
            "scheme": str(daemon_scheme(self.config.scheme)),
            "summary": fwd.stats_summary(),
            "counters": fwd.monitor.counters,
            "drained_interests": self.drained_interests,
            "defense": self.defense_status(),
            "faces": {fid: face.stats() for fid, face in self.faces.items()},
        }

    def face_tuple(self) -> Tuple[AsyncUdpFace, ...]:
        """All faces, for tests that index by creation order."""
        return tuple(self.faces.values())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ForwarderDaemon({self.config.name}, faces={len(self.faces)}, "
            f"ready={self.ready}, draining={self.draining})"
        )


# Re-exported for type hints in scenario/supervisor modules.
__all__ = [
    "DaemonConfig",
    "ForwarderDaemon",
    "DAEMON_SCHEMES",
    "add_forwarder",
    "daemon_scheme",
    "make_scheme",
    "Name",
]
