"""Full-topology simulator-core workload drivers (star and tree).

These drive the *packet-level* substrate — engine, links, forwarders,
CS/PIT/FIB — with many consumers fetching a shared object universe, and
report **packet-hops per second**: every :meth:`Link.transmit` is one
packet-hop, so the metric prices exactly the per-hop fast path the
full-topology experiments (Figure 3, amplification, overload) pay.

Two fixed topologies:

* ``star`` — N consumers on jittery LAN links around one router R with
  the producer behind it (the Figure-1 shape at scale),
* ``tree`` — a 3-level router tree (root - 2 aggregation - 4 leaves, two
  consumers per leaf) on deterministic links, which maximizes equal-time
  event ties and therefore stresses the engine's insertion-order
  determinism.

A third, batch-only case prices set-up at catalog scale: ``fat_tree``
(the k=4 fat tree of :mod:`repro.ndn.topology`) driven by an Ircache
stream through :func:`~repro.sim.workload_driver.scripts_from_workload`
— thousands of distinct names over 20 routers, where compile time, not
the kernel, is what a per-name cost would show up in.

All are deterministic per seed and expressed as
:class:`~repro.sim.batch.script.ConsumerScript` workloads, so the same
topology+workload pair runs on either engine: ``run_star``/``run_tree``
drive the reference object-graph engine, ``run_star_batch``/
``run_tree_batch`` the struct-of-arrays kernel.  Observables are
bit-identical between the two (asserted by
:func:`repro.validation.differential.validate_topology_differential`);
only ``wall_s`` differs.  :mod:`benchmarks.bench_sim_core` and the
``repro-experiments profile`` command build on them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Tuple

from repro.ndn.link import FixedDelay, GaussianJitterDelay, LogNormalDelay
from repro.ndn.network import Network
from repro.ndn.topology import CONTENT_PREFIX, fat_tree
from repro.perf.parallel import build_scheme
from repro.sim.batch.compile import compile_topology
from repro.sim.batch.kernel import run_compiled
from repro.sim.batch.script import ConsumerScript, FetchStep, _script_process
from repro.sim.rng import RngRegistry
from repro.sim.workload_driver import scripts_from_workload
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator

#: Prefix the sim-core object universe lives under.
SIMCORE_PREFIX = "/content"


@dataclass(frozen=True)
class SimCoreResult:
    """Outcome of one sim-core run: throughput plus integrity counters."""

    topology: str
    consumers: int
    requests: int
    delivered: int
    packet_hops: int
    events: int
    cache_hits: int
    sim_end_ms: float
    wall_s: float
    #: Batch runs only: wall seconds in ``compile_topology`` (outside
    #: ``wall_s``) and the size of the compiled vocabulary.
    compile_s: float = 0.0
    names: int = 0

    @property
    def hops_per_sec(self) -> float:
        """Packet-hops per wall-clock second (the headline metric)."""
        return self.packet_hops / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def events_per_sec(self) -> float:
        """Engine events per wall-clock second."""
        return self.events / self.wall_s if self.wall_s > 0 else 0.0


def simcore_scripts(
    consumer_names: List[str], requests_per_consumer: int, universe: int
) -> List[ConsumerScript]:
    """The canonical sim-core workload as declarative consumer scripts.

    Consumer ``j`` fetches object ``(i * 3 + j) % universe`` on step ``i``
    — a deterministic interleaving that mixes cache hits and misses
    across consumers without any RNG draws in the workload itself.
    """
    return [
        ConsumerScript(
            consumer=name,
            steps=tuple(
                FetchStep(
                    f"{SIMCORE_PREFIX}/obj-{(i * 3 + j) % universe}",
                    timeout=4000.0,
                )
                for i in range(requests_per_consumer)
            ),
        )
        for j, name in enumerate(consumer_names)
    ]


def _drive(
    net: Network,
    topology: str,
    consumer_names: List[str],
    requests_per_consumer: int,
    universe: int,
) -> SimCoreResult:
    """Run the sim-core scripts on the reference engine, timing only
    :meth:`Network.run` (setup and spawning stay outside the clock)."""
    scripts = simcore_scripts(consumer_names, requests_per_consumer, universe)
    delivered = {s.consumer: 0 for s in scripts}
    for script in scripts:
        net.spawn(
            _script_process(script, net[script.consumer], delivered),
            label=f"simcore:{script.consumer}",
        )

    start = time.perf_counter()
    end = net.run()
    wall = time.perf_counter() - start

    hops = sum(link.packets_sent for link in net.links.values())
    hits = sum(
        router.monitor.counter("cs_hit") for router in net.routers.values()
    )
    return SimCoreResult(
        topology=topology,
        consumers=len(consumer_names),
        requests=requests_per_consumer * len(consumer_names),
        delivered=sum(delivered.values()),
        packet_hops=hops,
        events=net.engine.events_processed,
        cache_hits=hits,
        sim_end_ms=end,
        wall_s=wall,
    )


def _drive_batch(
    net: Network, topology: str, scripts: List[ConsumerScript]
) -> SimCoreResult:
    """Run ``scripts`` on the batch kernel.  ``wall_s`` times only the
    kernel dispatch loop (mirroring how :func:`_drive` keeps spawning
    outside the clock); compilation is timed apart, as ``compile_s``."""
    start = time.perf_counter()
    compiled = compile_topology(net, scripts)
    compile_s = time.perf_counter() - start

    start = time.perf_counter()
    obs = run_compiled(compiled)
    wall = time.perf_counter() - start

    return SimCoreResult(
        topology=topology,
        consumers=len(scripts),
        requests=sum(
            isinstance(step, FetchStep) for script in scripts for step in script.steps
        ),
        delivered=obs.total_delivered,
        packet_hops=obs.total_hops,
        events=obs.events_processed,
        cache_hits=obs.total_cache_hits,
        sim_end_ms=obs.end_time,
        wall_s=wall,
        compile_s=compile_s,
        names=len(compiled.names),
    )


def build_star(
    consumers: int = 16, seed: int = 0, cache_capacity: int = 64
) -> Tuple[Network, List[str], int]:
    """Star topology: returns ``(net, consumer_names, universe)``."""
    net = Network(rng=RngRegistry(seed))
    net.add_router("R", capacity=cache_capacity)
    net.add_producer("P", SIMCORE_PREFIX)
    net.connect("R", "P", LogNormalDelay(base=1.0, tail_scale=0.7, sigma=0.8))
    net.add_route("R", SIMCORE_PREFIX, "P")
    names = []
    for j in range(consumers):
        name = f"C{j}"
        net.add_consumer(name)
        net.connect(
            name, "R", GaussianJitterDelay(base=1.8, jitter_std=0.12, floor=1.5)
        )
        names.append(name)
    return net, names, max(4, consumers * 4)


def build_tree(
    seed: int = 0, cache_capacity: int = 32
) -> Tuple[Network, List[str], int]:
    """3-level tree topology: returns ``(net, consumer_names, universe)``."""
    net = Network(rng=RngRegistry(seed))
    net.add_producer("P", SIMCORE_PREFIX)
    net.add_router("R0", capacity=cache_capacity)
    net.connect("R0", "P", FixedDelay(1.0))
    net.add_route("R0", SIMCORE_PREFIX, "P")

    names: List[str] = []
    for a in range(2):
        agg = f"R1-{a}"
        net.add_router(agg, capacity=cache_capacity)
        net.connect(agg, "R0", FixedDelay(0.8))
        net.add_route(agg, SIMCORE_PREFIX, "R0")
        for l in range(2):
            leaf = f"R2-{a}{l}"
            net.add_router(leaf, capacity=cache_capacity)
            net.connect(leaf, agg, FixedDelay(0.5))
            net.add_route(leaf, SIMCORE_PREFIX, agg)
            for c in range(2):
                name = f"C{a}{l}{c}"
                net.add_consumer(name)
                net.connect(name, leaf, FixedDelay(0.3))
                names.append(name)
    return net, names, 32


def run_star(
    consumers: int = 16,
    requests_per_consumer: int = 200,
    seed: int = 0,
    cache_capacity: int = 64,
) -> SimCoreResult:
    """Star: N consumers around one caching router, producer behind it."""
    net, names, universe = build_star(consumers, seed, cache_capacity)
    return _drive(net, "star", names, requests_per_consumer, universe)


def run_tree(
    requests_per_consumer: int = 150,
    seed: int = 0,
    cache_capacity: int = 32,
) -> SimCoreResult:
    """3-level tree: root - 2 aggregation routers - 4 leaves, 2 consumers
    per leaf.  Deterministic link delays maximize equal-time event ties."""
    net, names, universe = build_tree(seed, cache_capacity)
    return _drive(net, "tree", names, requests_per_consumer, universe)


def run_star_batch(
    consumers: int = 16,
    requests_per_consumer: int = 200,
    seed: int = 0,
    cache_capacity: int = 64,
) -> SimCoreResult:
    """The star workload on the batch kernel (bit-identical counts)."""
    net, names, universe = build_star(consumers, seed, cache_capacity)
    scripts = simcore_scripts(names, requests_per_consumer, universe)
    return _drive_batch(net, "star_batch", scripts)


def run_tree_batch(
    requests_per_consumer: int = 150,
    seed: int = 0,
    cache_capacity: int = 32,
) -> SimCoreResult:
    """The tree workload on the batch kernel (bit-identical counts)."""
    net, names, universe = build_tree(seed, cache_capacity)
    scripts = simcore_scripts(names, requests_per_consumer, universe)
    return _drive_batch(net, "tree_batch", scripts)


def build_fat_tree_ircache(
    requests: int = 11_250, seed: int = 0
) -> Tuple[Network, List[ConsumerScript]]:
    """Fat tree x Ircache: returns ``(net, scripts)``.

    LCD placement, 256-object caches, a uniform scheme on the probe
    router; every host replays its share of one ``requests``-long
    Ircache stream (2000 users over a 20k-object catalog, so roughly
    two fetches in three name something new), every fifth fetch private.
    """
    net = fat_tree(
        seed=seed,
        scheme=build_scheme("uniform", seed=seed),
        cache_capacity=256,
        caching="lcd",
    ).network
    config = IrcacheConfig(
        requests=requests,
        users=2000,
        objects=20_000,
        sites=200,
        session_locality=0.3,
        duration_hours=1.0,
        seed=seed,
    )
    scripts = scripts_from_workload(
        IrcacheGenerator(config).stream(),
        list(net.consumers),
        uri_prefix=CONTENT_PREFIX,
        time_scale=1e-3,
        private_period=5,
    )
    return net, scripts


def run_fat_tree_ircache_batch(
    requests: int = 11_250, seed: int = 0
) -> SimCoreResult:
    """The fat-tree Ircache workload on the batch kernel."""
    net, scripts = build_fat_tree_ircache(requests, seed)
    return _drive_batch(net, "fat_tree_ircache_batch", scripts)


RUNNERS = {
    "star": run_star,
    "tree": run_tree,
    "star_batch": run_star_batch,
    "tree_batch": run_tree_batch,
}
