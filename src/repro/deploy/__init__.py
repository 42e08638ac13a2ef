"""Real-socket deployment mode: the simulator's NDN core as a process.

The discrete-event substrate (:mod:`repro.sim`) and the NDN data plane
(:mod:`repro.ndn`) were written engine-agnostic: the forwarder only ever
talks to its clock through the :class:`~repro.sim.engine.Engine`
scheduling interface and to its neighbors through
:class:`~repro.ndn.link.Face` send/receive calls.  This package supplies
real-world implementations of both seams —

* :class:`~repro.deploy.clock.RealTimeEngine` — the engine scheduling
  interface over an asyncio event loop's wall clock (milliseconds, like
  the simulator), so PIT expiry timers, privacy-scheme delays, and
  token-bucket refill all run against real time unchanged;
* :class:`~repro.deploy.faces.AsyncUdpFace` — a face speaking the TLV
  codec of :mod:`repro.ndn.wire` over a UDP socket, dispatching each
  datagram inside its read callback, with a bounded send buffer and a
  hardened decode path that counts-and-drops malformed datagrams
  instead of crashing;
* :class:`~repro.deploy.daemon.ForwarderDaemon` — one supervised
  forwarder process: CS + privacy scheme + bounded PIT + admission +
  Nack plane, a line-based TCP management channel (PiCN pattern), and
  drain/health/readiness hooks;
* :class:`~repro.deploy.endpoints.AsyncConsumer` /
  :class:`~repro.deploy.endpoints.AsyncProducer` — socket-side
  applications with deadline propagation and Nack-aware retransmission
  via :class:`~repro.faults.retry.RetryPolicy`;
* :class:`~repro.deploy.supervisor.Supervisor` — the daemon's
  management channel and graceful drain-then-close shutdown;
* :class:`~repro.deploy.chaos.ChaosUdpProxy` — seed-reproducible
  drop/delay/duplicate/reorder/corrupt applied to real datagrams, so the
  fault schedules of :mod:`repro.faults` have a socket-level counterpart;
* :mod:`~repro.deploy.scenario` — the CDN/VPN geo scenario (user device
  → VPN exit → CDN edge) run over loopback sockets, with a differential
  harness proving the socket run reproduces the simulator's cache
  decisions and probe verdicts, plus the malformed-flood soak test.

Everything runs on loopback with no dependencies beyond the standard
library's asyncio; the same classes bind non-loopback addresses for a
multi-host deployment.
"""

from repro.deploy.chaos import ChaosConfig, ChaosUdpProxy
from repro.deploy.clock import RealTimeEngine
from repro.deploy.daemon import DaemonConfig, ForwarderDaemon
from repro.deploy.endpoints import AsyncConsumer, AsyncProducer, FetchFailed
from repro.deploy.faces import AsyncUdpFace
from repro.deploy.mgmt import MgmtClient, MgmtError, MgmtServer
from repro.deploy.scenario import (
    GeoRunResult,
    GeoSpec,
    SoakReport,
    SoakSpec,
    build_workload,
    differential,
    run_geo_sim,
    run_geo_socket,
    run_soak,
)
from repro.deploy.supervisor import Supervisor

__all__ = [
    "AsyncConsumer",
    "AsyncProducer",
    "AsyncUdpFace",
    "ChaosConfig",
    "ChaosUdpProxy",
    "DaemonConfig",
    "FetchFailed",
    "ForwarderDaemon",
    "GeoRunResult",
    "GeoSpec",
    "MgmtClient",
    "MgmtError",
    "MgmtServer",
    "RealTimeEngine",
    "SoakReport",
    "SoakSpec",
    "Supervisor",
    "build_workload",
    "differential",
    "run_geo_sim",
    "run_geo_socket",
    "run_soak",
]
