"""The CDN/VPN geo scenario and the soak harness, sim and socket.

One :class:`GeoSpec` describes a UoE_NDNx-style deployment — a user
device behind a VPN exit reaching a CDN edge cache that fronts a private
origin, with an adversary attached directly to the edge — and two
runners execute it:

* :func:`run_geo_sim` in the discrete-event simulator (the reproduction
  substrate every prior PR validated);
* :func:`run_geo_socket` over real UDP sockets on loopback, through
  :class:`~repro.deploy.daemon.ForwarderDaemon` processes.

Both runners build the VPN exit and the edge from the same
:class:`~repro.deploy.daemon.DaemonConfig` through
:func:`~repro.deploy.daemon.add_forwarder`, and both step one request
driver (:func:`_geo_driver`) over the same concrete request sequence
(derived once from the spec's seed).  Privacy-scheme decisions depend
only on request order and the named RNG streams — never on wall-clock
time — so the socket run must reproduce the simulator's per-request
cache decisions and scope-probe verdicts exactly; :func:`differential`
diffs the two reports and returns every disagreement.

:func:`run_soak` is the robustness counterpart: a supervised daemon
behind a *faulty* chaos proxy survives a malformed-datagram flood, an
interest flood, a management-channel garbage flood, a cache-pollution
flood against its live online defense (which must alarm and throttle
the attacker while honest traffic keeps flowing), and a producer
crash/restart — with zero handler errors and the :mod:`repro.validation`
conservation laws holding on its counters at quiescence.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.deploy.chaos import ChaosConfig, ChaosUdpProxy
from repro.deploy.clock import RealTimeEngine
from repro.deploy.daemon import DaemonConfig, ForwarderDaemon, add_forwarder
from repro.deploy.endpoints import AsyncConsumer, AsyncProducer
from repro.deploy.faces import AsyncUdpFace
from repro.deploy.supervisor import Supervisor
from repro.faults.retry import RetryPolicy
from repro.ndn.forwarder import Forwarder
from repro.ndn.link import FixedDelay
from repro.ndn.network import Network
from repro.sim.process import Timeout
from repro.sim.rng import RngRegistry
from repro.validation.invariants import InvariantChecker

#: Counter names whose per-request delta classifies a cache decision.
DECISION_COUNTERS = ("cs_hit", "cs_disguised_hit", "cs_forced_miss", "cs_miss")

#: The origin's prefix in the geo scenario and the soak.
PREFIX = "/cdn"
#: Geo per-request budget (engine ms; socket: wall ms at time scale 1).
GEO_FETCH_TIMEOUT = 2000.0
#: Pollution fetches the soak blasts from the attacker face while the
#: daemon's online defense is armed (the closed-loop phase).
SOAK_POLLUTION_INTERESTS = 240


@dataclass(frozen=True)
class GeoSpec:
    """The CDN/VPN geo scenario, fully determined by its fields."""

    seed: int = 7
    scheme: str = "uniform"
    catalog_size: int = 24
    requests: int = 60
    probes: int = 12
    edge_cs_capacity: int = 16
    vpn_cs_capacity: int = 8
    #: Scope-2 probe wait — an unanswered probe burns all of it.
    probe_timeout: float = 300.0


def build_workload(spec: GeoSpec) -> Tuple[List[str], List[str]]:
    """Derive (requests, probe targets) from the spec — pure in the seed.

    Requests follow a Zipf-like popularity (exponent 0.8) over the
    catalog.  Probe targets mix names the workload touched (candidate
    hits) with cold names it never requested (certain misses), so probe
    accuracy is measured against a non-trivial ground truth.
    """
    rng = RngRegistry(spec.seed).stream("workload:geo")
    catalog = [f"{PREFIX}/object-{i}" for i in range(spec.catalog_size)]
    ranks = np.arange(1, spec.catalog_size + 1, dtype=float)
    weights = ranks**-0.8
    weights /= weights.sum()
    picks = rng.choice(spec.catalog_size, size=spec.requests, p=weights)
    requests = [catalog[i] for i in picks]
    hot: List[str] = []
    for name in requests:  # distinct requested names, first-seen order
        if name not in hot:
            hot.append(name)
    n_hot = min(spec.probes // 2, len(hot))
    targets = hot[:n_hot] + [
        f"{PREFIX}/cold-{i}" for i in range(spec.probes - n_hot)
    ]
    return requests, targets


def _geo_configs(spec: GeoSpec) -> Tuple[DaemonConfig, DaemonConfig]:
    """The VPN exit (no privacy) and the CDN edge (the spec's scheme)."""
    return (
        DaemonConfig(
            name="vpn",
            seed=spec.seed,
            scheme="no-privacy",
            cs_capacity=spec.vpn_cs_capacity,
        ),
        DaemonConfig(
            name="edge",
            seed=spec.seed,
            scheme=spec.scheme,
            cs_capacity=spec.edge_cs_capacity,
        ),
    )


@dataclass
class GeoRunResult:
    """What one geo run observed — the unit the differential compares."""

    mode: str
    scheme: str
    seed: int
    #: Per request: (name, vpn decision, edge decision); a decision is one
    #: of DECISION_COUNTERS or "none" (the request never reached that hop).
    decisions: List[Tuple[str, str, str]] = field(default_factory=list)
    #: Per probe: (target, answered) — answered == adversary decides HIT.
    probe_verdicts: List[Tuple[str, bool]] = field(default_factory=list)
    #: Edge CS contents right before the probe phase (ground truth).
    cached_at_probe_time: List[str] = field(default_factory=list)
    fetch_failures: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def edge_hit_rate(self) -> float:
        """Observable hits (HIT + DELAYED_HIT) over edge lookups."""
        served = sum(
            1 for _, _, e in self.decisions if e in ("cs_hit", "cs_disguised_hit")
        )
        seen = sum(1 for _, _, e in self.decisions if e != "none")
        return served / seen if seen else 0.0

    @property
    def probe_accuracy(self) -> float:
        """Fraction of probe verdicts agreeing with cache ground truth."""
        if not self.probe_verdicts:
            return 0.0
        truth = set(self.cached_at_probe_time)
        correct = sum(
            1
            for target, answered in self.probe_verdicts
            if answered == (target in truth)
        )
        return correct / len(self.probe_verdicts)

    def summary(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "scheme": self.scheme,
            "seed": self.seed,
            "requests": len(self.decisions),
            "edge_hit_rate": round(self.edge_hit_rate, 4),
            "probe_accuracy": round(self.probe_accuracy, 4),
            "fetch_failures": self.fetch_failures,
            "violations": len(self.violations),
        }


def _decision_delta(before: Dict[str, int], after: Dict[str, int]) -> str:
    for key in DECISION_COUNTERS:
        if after.get(key, 0) - before.get(key, 0) > 0:
            return key
    return "none"


def differential(sim: GeoRunResult, socket: GeoRunResult) -> List[str]:
    """Every observable disagreement between a sim and a socket run."""
    mismatches: List[str] = []
    if len(sim.decisions) != len(socket.decisions):
        mismatches.append(
            f"request count: sim={len(sim.decisions)} socket={len(socket.decisions)}"
        )
    for i, (s, k) in enumerate(zip(sim.decisions, socket.decisions)):
        if s != k:
            mismatches.append(f"request[{i}]: sim={s} socket={k}")
    if sim.cached_at_probe_time != socket.cached_at_probe_time:
        mismatches.append(
            f"cache at probe time: sim={sim.cached_at_probe_time} "
            f"socket={socket.cached_at_probe_time}"
        )
    if len(sim.probe_verdicts) != len(socket.probe_verdicts):
        mismatches.append(
            f"probe count: sim={len(sim.probe_verdicts)} "
            f"socket={len(socket.probe_verdicts)}"
        )
    for i, (s, k) in enumerate(zip(sim.probe_verdicts, socket.probe_verdicts)):
        if s != k:
            mismatches.append(f"probe[{i}]: sim={s} socket={k}")
    return mismatches


def _geo_driver(
    spec: GeoSpec, result: GeoRunResult, vpn: Forwarder, edge: Forwarder,
    user, adversary,
):
    """The geo request sequence, written once for both runners.

    Yields each fetch as ``(consumer, name, scope, timeout)`` and is sent
    its result (None for a failed fetch).  Records each request's
    decision at both hops, the edge cache before the probe phase and each
    scope-2 probe's verdict into ``result``.
    """
    requests, targets = build_workload(spec)
    for name in requests:
        before_vpn = dict(vpn.monitor.counters)
        before_edge = dict(edge.monitor.counters)
        fetched = yield user, name, None, GEO_FETCH_TIMEOUT
        result.fetch_failures += fetched is None
        result.decisions.append(
            (
                name,
                _decision_delta(before_vpn, vpn.monitor.counters),
                _decision_delta(before_edge, edge.monitor.counters),
            )
        )
    result.cached_at_probe_time = [str(n) for n in edge.cs.names]
    for target in targets:
        fetched = yield adversary, target, 2, spec.probe_timeout
        result.probe_verdicts.append((target, fetched is not None))


# ----------------------------------------------------------------------
# Simulator runner
# ----------------------------------------------------------------------
def run_geo_sim(spec: GeoSpec) -> GeoRunResult:
    """Run the geo scenario in the discrete-event simulator."""
    result = GeoRunResult(mode="sim", scheme=spec.scheme, seed=spec.seed)
    net = Network(rng=RngRegistry(spec.seed))
    vpn, edge = (add_forwarder(net, config) for config in _geo_configs(spec))
    net.add_producer("origin", PREFIX, private=True)
    user = net.add_consumer("user")
    adversary = net.add_consumer("adversary")
    delay = FixedDelay(5.0)  # one-way ms; irrelevant to decisions
    for a, b in (
        ("user", "vpn"), ("vpn", "edge"), ("edge", "origin"), ("adversary", "edge")
    ):
        net.connect(a, b, delay)
    net.add_route_chain(PREFIX, "user", "vpn", "edge", "origin")
    driver = _geo_driver(spec, result, vpn, edge, user, adversary)

    def stepper():
        # Each fetch is followed by a 1 ms gap before the driver reads the
        # counters: no packet is in flight by then, so the reading is the
        # one the socket runner takes right after its fetch returns.
        fetched = None
        while True:
            try:
                consumer, name, scope, timeout = driver.send(fetched)
            except StopIteration:
                return
            fetched = yield from consumer.fetch(name, scope=scope, timeout=timeout)
            yield Timeout(1.0)

    net.spawn(stepper(), label="geo-driver")
    net.run()
    result.violations = [str(v) for v in InvariantChecker().check_network(net)]
    return result


# ----------------------------------------------------------------------
# Socket runner
# ----------------------------------------------------------------------
async def _attach(endpoint, daemon: ForwarderDaemon, label: str) -> AsyncUdpFace:
    """Attach ``endpoint`` to a new face of ``daemon``, each pinned to the
    other; returns the daemon's face."""
    face = await daemon.add_udp_face(label=label)
    await endpoint.attach(peer=face.local_addr)
    face.set_peer(endpoint.face.local_addr)
    return face


async def _run_geo_socket_async(spec: GeoSpec) -> GeoRunResult:
    result = GeoRunResult(mode="socket", scheme=spec.scheme, seed=spec.seed)
    engine = RealTimeEngine(asyncio.get_running_loop())
    vpn, edge = (ForwarderDaemon(config) for config in _geo_configs(spec))
    origin = AsyncProducer(engine, PREFIX, producer_id="origin", private=True)
    user = AsyncConsumer(engine, name="user")
    adversary = AsyncConsumer(engine, name="adversary")
    try:
        await vpn.start()
        await edge.start()
        await _attach(user, vpn, "vpn:user")
        vpn_face_edge = await vpn.add_udp_face(label="vpn:edge")
        edge_face_vpn = await edge.add_udp_face(label="edge:vpn")
        vpn_face_edge.set_peer(edge_face_vpn.local_addr)
        edge_face_vpn.set_peer(vpn_face_edge.local_addr)
        vpn.add_route(PREFIX, vpn_face_edge.face_id)
        edge.add_route(PREFIX, (await _attach(origin, edge, "edge:origin")).face_id)
        await _attach(adversary, edge, "edge:adv")

        driver = _geo_driver(
            spec, result, vpn.forwarder, edge.forwarder, user, adversary
        )
        fetched = None
        while True:
            try:
                consumer, name, scope, timeout = driver.send(fetched)
            except StopIteration:
                break
            fetched = await consumer.fetch_or_none(
                name,
                scope=scope,
                retry=RetryPolicy(retries=0, timeout=timeout, backoff=1.0),
            )
        # Quiescence before auditing: scope-dropped probes leave no PIT
        # state, but give in-flight timers a moment to settle.
        checker = InvariantChecker()
        for daemon in (vpn, edge):
            await daemon.wait_pit_drained()
            checker.check_forwarder(daemon.forwarder)
        result.violations = [str(v) for v in checker.violations]
    finally:
        for endpoint in (user, adversary, origin):
            await endpoint.close()
        await vpn.stop()
        await edge.stop()
    return result


def run_geo_socket(spec: GeoSpec) -> GeoRunResult:
    """Run the geo scenario over real UDP sockets on loopback."""
    return asyncio.run(_run_geo_socket_async(spec))


# ----------------------------------------------------------------------
# Soak harness
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SoakSpec:
    """Intensities for the hostile-conditions soak."""

    seed: int = 11
    scheme: str = "uniform"
    #: Background fetches through the faulty proxy.
    background_fetches: int = 40
    #: Garbage datagrams blasted at an unpinned daemon face.
    malformed_packets: int = 300
    #: Garbage lines thrown at the TCP management channel.
    mgmt_garbage_lines: int = 50
    #: Concurrent distinct-name interests in the flood phase.
    flood_interests: int = 200
    #: Fetches attempted while the producer is down / after restart.
    crash_fetches: int = 5
    pit_capacity: int = 64
    #: I.i.d. loss on the chaos proxies (which also corrupt 10%,
    #: duplicate 5% and reorder 5% of the packets).
    loss_rate: float = 0.15
    fetch_timeout: float = 250.0


@dataclass
class SoakReport:
    """Everything the soak observed, plus the pass/fail verdict."""

    phases: Dict[str, Dict[str, int]] = field(default_factory=dict)
    daemon_counters: Dict[str, int] = field(default_factory=dict)
    face_stats: List[dict] = field(default_factory=list)
    proxy_stats: Dict[str, int] = field(default_factory=dict)
    supervisor_stats: Dict[str, object] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.violations

    def summary(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "failures": self.failures,
            "violations": self.violations,
            "phases": self.phases,
            "proxy": self.proxy_stats,
            "supervisor": self.supervisor_stats,
        }


class _JunkSender(asyncio.DatagramProtocol):
    """Fire-and-forget garbage source for the malformed flood."""

    def connection_made(self, transport) -> None:
        self.transport = transport


async def _run_soak_async(spec: SoakSpec) -> SoakReport:
    report = SoakReport()
    rng = RngRegistry(spec.seed)
    loop = asyncio.get_running_loop()
    engine = RealTimeEngine(loop)

    daemon = ForwarderDaemon(
        DaemonConfig(
            name="soak-edge",
            seed=spec.seed,
            scheme=spec.scheme,
            pit_capacity=spec.pit_capacity,
        )
    )
    supervisor = Supervisor(daemon)
    await supervisor.start()
    face_user = await daemon.add_udp_face(label="soak:user")
    producer = AsyncProducer(engine, PREFIX, producer_id="origin")
    face_origin = await _attach(producer, daemon, "soak:origin")
    producer_port = producer.face.local_addr
    #: Deliberately unpinned: the malformed flood lands here.
    face_open = await daemon.add_udp_face(label="soak:open")

    def faulty() -> ChaosConfig:
        return ChaosConfig(
            loss_prob=spec.loss_rate,
            delay_range=(0.0, 0.002),
            duplicate_prob=0.05,
            reorder_prob=0.05,
            corrupt_prob=0.1,
        )

    consumer = AsyncConsumer(engine, name="soak-user")
    await consumer.attach(label="user:soak")
    proxy = ChaosUdpProxy(rng.stream("chaos:soak"), config=faulty())
    await proxy.start(
        peer_a=consumer.face.local_addr, peer_b=face_user.local_addr
    )
    consumer.face.set_peer(proxy.addr_a)
    face_user.set_peer(proxy.addr_b)
    daemon.add_route(PREFIX, face_origin.face_id)

    retry = RetryPolicy(
        retries=2, timeout=spec.fetch_timeout, backoff=2.0, jitter=0.1
    )
    fetch_rng = rng.stream("soak:retry-jitter")
    junk_rng = rng.stream("soak:junk")
    attacker: Optional[AsyncConsumer] = None
    attacker_proxy: Optional[ChaosUdpProxy] = None

    try:
        # Phase 1: background traffic through the faulty proxy.
        ok = failed = 0
        for i in range(spec.background_fetches):
            got = await consumer.fetch_or_none(
                f"{PREFIX}/soak-{i % 10}", retry=retry, rng=fetch_rng
            )
            ok += got is not None
            failed += got is None
        report.phases["background"] = {"ok": ok, "failed": failed}

        # Phase 2: malformed-datagram flood at the unpinned face.
        junk_transport, _ = await loop.create_datagram_endpoint(
            _JunkSender, remote_addr=face_open.local_addr
        )
        for _ in range(spec.malformed_packets):
            size = int(junk_rng.integers(1, 128))
            junk_transport.sendto(junk_rng.integers(0, 256, size).astype("uint8").tobytes())
        await asyncio.sleep(0.2)
        junk_transport.close()
        report.phases["malformed_flood"] = {
            "sent": spec.malformed_packets,
            "dropped": face_open.malformed_dropped,
        }
        if face_open.malformed_dropped == 0:
            report.failures.append("malformed flood never hit the decode path")

        # Phase 3: management-channel garbage.
        reader, writer = await asyncio.open_connection(*supervisor.mgmt_addr)
        errors = 0
        for i in range(spec.mgmt_garbage_lines):
            writer.write(b"bogus-cmd %d \xff\xfe junk\n" % i)
            await writer.drain()
            reply = await reader.readline()
            errors += reply.startswith(b"error")
        writer.write(b"health\n")
        await writer.drain()
        health_reply = await reader.readline()
        writer.close()
        await writer.wait_closed()
        report.phases["mgmt_garbage"] = {
            "sent": spec.mgmt_garbage_lines,
            "rejected": errors,
        }
        if not health_reply.startswith(b"ok"):
            report.failures.append("mgmt channel unhealthy after garbage")

        # Phase 4: interest flood (distinct names, concurrent, tiny budget).
        flood_policy = RetryPolicy(retries=0, timeout=spec.fetch_timeout, backoff=1.0)
        flood = await asyncio.gather(
            *(
                consumer.fetch_or_none(
                    f"{PREFIX}/flood-{i}", retry=flood_policy
                )
                for i in range(spec.flood_interests)
            )
        )
        served = sum(1 for r in flood if r is not None)
        report.phases["interest_flood"] = {
            "sent": spec.flood_interests,
            "served": served,
            "refused_or_lost": spec.flood_interests - served,
        }

        # Phase 5: cache-pollution flood from a dedicated attacker face,
        # also behind a faulty chaos proxy.  The daemon arms its online
        # defense live, must detect the flood (pollution alarm), throttle
        # the attacker's face, and keep serving honest traffic meanwhile.
        agent = daemon.set_defense("adaptive")
        face_attacker = await daemon.add_udp_face(label="soak:attacker")
        attacker = AsyncConsumer(engine, name="soak-attacker")
        await attacker.attach(label="attacker:soak")
        attacker_proxy = ChaosUdpProxy(
            rng.stream("chaos:soak-attacker"), config=faulty()
        )
        await attacker_proxy.start(
            peer_a=attacker.face.local_addr, peer_b=face_attacker.local_addr
        )
        attacker.face.set_peer(attacker_proxy.addr_a)
        face_attacker.set_peer(attacker_proxy.addr_b)

        pollute_policy = RetryPolicy(retries=0, timeout=120.0, backoff=1.0)
        landed = refused = 0
        sent = 0
        while sent < SOAK_POLLUTION_INTERESTS:
            chunk = min(16, SOAK_POLLUTION_INTERESTS - sent)
            results = await asyncio.gather(
                *(
                    attacker.fetch_or_none(
                        f"{PREFIX}/pollute-{sent + j:05d}",
                        retry=pollute_policy,
                    )
                    for j in range(chunk)
                )
            )
            landed += sum(1 for r in results if r is not None)
            refused += sum(1 for r in results if r is None)
            sent += chunk
        # Honest traffic must still be served during mitigation.
        honest_ok = 0
        for i in range(5):
            got = await consumer.fetch_or_none(
                f"{PREFIX}/soak-{i % 10}", retry=retry, rng=fetch_rng
            )
            honest_ok += got is not None
        pollution_alarms = agent.log.count("pollution")
        throttled = int(daemon.forwarder.monitor.counter("defense_throttled"))
        report.phases["pollution_defense"] = {
            "sent": sent,
            "landed": landed,
            "refused_or_lost": refused,
            "alarms": agent.log.total,
            "pollution_alarms": pollution_alarms,
            "throttled": throttled,
            "mitigations": len(agent.mitigations),
            "quarantined": int(daemon.forwarder.monitor.counter("cache_quarantined")),
            "honest_ok_during_mitigation": honest_ok,
        }
        if pollution_alarms == 0:
            report.failures.append("pollution flood never raised a pollution alarm")
        if throttled == 0:
            report.failures.append("defense never throttled the polluting face")
        if honest_ok == 0:
            report.failures.append("honest fetches starved during mitigation")
        # The mgmt channel must surface the alarm ledger live.
        reader, writer = await asyncio.open_connection(*supervisor.mgmt_addr)
        writer.write(b"alarms\n")
        await writer.drain()
        alarms_reply = await reader.readline()
        writer.close()
        await writer.wait_closed()
        if not alarms_reply.startswith(b"ok"):
            report.failures.append("mgmt alarms command failed")

        # Phase 6: producer crash, fetches fail, restart, fetches recover.
        await producer.close()
        await asyncio.sleep(0.05)
        down = 0
        for i in range(spec.crash_fetches):
            got = await consumer.fetch_or_none(
                f"{PREFIX}/post-crash-{i}", retry=flood_policy
            )
            down += got is None
        producer = AsyncProducer(engine, PREFIX, producer_id="origin")
        await producer.attach(
            local=producer_port, peer=face_origin.local_addr, label="origin:soak2"
        )
        face_origin.set_peer(producer.face.local_addr)
        recovered = 0
        for i in range(spec.crash_fetches):
            got = await consumer.fetch_or_none(
                f"{PREFIX}/post-restart-{i}", retry=retry, rng=fetch_rng
            )
            recovered += got is not None
        report.phases["producer_crash"] = {
            "failed_while_down": down,
            "recovered_after_restart": recovered,
        }
        if recovered == 0:
            report.failures.append("no fetch succeeded after producer restart")

        # Quiesce, audit, and shut down gracefully.
        await daemon.wait_pit_drained(timeout_ms=3000.0)
        checker = InvariantChecker()
        checker.check_forwarder(daemon.forwarder)
        report.violations = [str(v) for v in checker.violations]
        report.daemon_counters = dict(daemon.forwarder.monitor.counters)
        report.face_stats = [f.stats() for f in daemon.faces.values()]
        report.proxy_stats = proxy.stats()

        for face in daemon.faces.values():
            if face.handler_errors:
                report.failures.append(
                    f"face {face.label} handler_errors={face.handler_errors}"
                )
    finally:
        await supervisor.shutdown()
        report.supervisor_stats = supervisor.stats()
        await consumer.close()
        if attacker is not None:
            await attacker.close()
        if attacker_proxy is not None:
            await attacker_proxy.close()
        await producer.close()
        await proxy.close()
    return report


def run_soak(spec: Optional[SoakSpec] = None) -> SoakReport:
    """Run the hostile-conditions soak; see :class:`SoakSpec`."""
    return asyncio.run(_run_soak_async(spec if spec is not None else SoakSpec()))
