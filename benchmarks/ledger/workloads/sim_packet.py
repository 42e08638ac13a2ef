"""``sim_packet`` — the packet path users call, fast path and fallback.

``repro.sim.batch.run_scripts(kernel="auto")``, compile included, over
three topologies that lower to the batch kernel and one that does not:

* ``star`` / ``tree`` — ``perf.simcore``'s builders and scripts,
* ``fat_tree`` — ``ndn.topology.fat_tree(caching="lcd", scheme=uniform)``
  driven from an Ircache stream through ``scripts_from_workload``,
* ``fallback`` — the star again with a bounded PIT and an exponential
  scheme, fed Ircache requests.  A bounded PIT does not lower today, so
  this case rides the reference engine: the only place a large-catalog
  workload meets it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from benchmarks.ledger.harness import Samples, Tracer, Workload
from repro.ndn.apps.producer import Producer
from repro.ndn.link import GaussianJitterDelay, LogNormalDelay
from repro.ndn.name import Name
from repro.ndn.network import Network
from repro.ndn.packets import Interest
from repro.ndn.topology import CONTENT_PREFIX, fat_tree
from repro.perf.parallel import build_scheme
from repro.perf.simcore import (
    SIMCORE_PREFIX,
    build_star,
    build_tree,
    simcore_scripts,
)
from repro.sim.batch import (
    BatchCompileError,
    compile_topology,
    diff_observables,
    run_compiled,
    run_scripts,
    run_scripts_reference,
)
from repro.sim.batch.script import ConsumerScript, FetchStep, TopologyObservables
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.workload_driver import scripts_from_workload
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator

STAR_CONSUMERS = 32
STAR_FETCHES = 750  # per consumer
TREE_FETCHES = 2250  # per consumer
FAT_TREE_REQUESTS = 11_250
FALLBACK_REQUESTS = 1_000
FALLBACK_PIT = 4096
#: Reference legs of the traced run are this much smaller.
REFERENCE_DIVISOR = 8
BATCH_CASES = ("star", "tree", "fat_tree")
CASES = (*BATCH_CASES, "fallback")

#: (network, scripts, topology-build wall, script-lowering wall)
Built = Tuple[Network, List[ConsumerScript], float, float]


def _ircache_scripts(
    requests: int, seed: int, consumers: List[str], prefix: str
) -> List[ConsumerScript]:
    config = IrcacheConfig(
        requests=requests, users=2000, objects=20_000, sites=200,
        session_locality=0.3, duration_hours=1.0, seed=seed,
    )  # fmt: skip
    return scripts_from_workload(
        IrcacheGenerator(config).stream(),
        consumers,
        uri_prefix=prefix,
        time_scale=1e-3,
        private_period=5,
    )


def _fat_tree_hosts(k: int = 4, hosts_per_edge: int = 2) -> List[str]:
    """Consumer names as ``ndn.topology.fat_tree`` assigns them."""
    hosts = []
    for pod in range(k):
        for edge in range(k // 2):
            for host in range(hosts_per_edge):
                if (pod, edge) == (0, 0):
                    hosts.append(("U", "Adv")[host] if host < 2 else f"h0-0-{host}")
                else:
                    hosts.append(f"h{pod}-{edge}-{host}")
    return hosts


def _bounded_star(seed: int) -> Tuple[Network, List[str]]:
    """``perf.simcore.build_star``'s shape with a bounded PIT and an
    exponential scheme on the router (``build_star`` takes neither)."""
    net = Network(rng=RngRegistry(seed))
    net.add_router(
        "R",
        capacity=64,
        scheme=build_scheme("exponential", seed=seed),
        pit_capacity=FALLBACK_PIT,
    )
    net.add_producer("P", SIMCORE_PREFIX)
    net.connect("R", "P", LogNormalDelay(base=1.0, tail_scale=0.7, sigma=0.8))
    net.add_route("R", SIMCORE_PREFIX, "P")
    names = [f"C{j}" for j in range(STAR_CONSUMERS)]
    for name in names:
        net.add_consumer(name)
        net.connect(name, "R", GaussianJitterDelay(base=1.8, jitter_std=0.12, floor=1.5))
    return net, names


class _NullFace:
    """Swallows what the producer serves (``Producer.receive_interest``
    timed alone needs somewhere to send)."""

    def send_data(self, data) -> None:
        pass


class SimPacket(Workload):
    name = "sim_packet"
    end_to_end = ("hops_per_s", "fallback_hops_per_s")
    per_layer = (
        "sim.workload_driver.scripts_s",
        "sim.batch.compile_s",
        "sim.batch.kernel_s",
        "sim.batch.compile_share",
        *(f"sim.batch.kernel_hops_per_s.{case}" for case in BATCH_CASES),
        "sim.batch.fallback_share",
        *(f"sim.engine.ref_hops_per_s.{case}" for case in BATCH_CASES),
        "sim.engine.events",
        "ndn.forwarder.cs_hits",
        "ndn.link.packet_hops",
        "ndn.apps.producer.serve_us",
    )

    def _build(self, case: str, div: int, tr: Tracer) -> Built:
        """A fresh network and the scripts of ``case`` at ``1/div`` size."""
        seed = self.seed
        universe = 0
        with tr.span("ndn.topology.build") as built:
            if case == "star":
                net, names, universe = build_star(STAR_CONSUMERS, seed)
            elif case == "tree":
                net, names, universe = build_tree(seed)
            elif case == "fat_tree":
                net = fat_tree(
                    seed=seed,
                    scheme=build_scheme("uniform", seed=seed),
                    cache_capacity=256,
                    caching="lcd",
                ).network
                names = _fat_tree_hosts()
            else:
                net, names = _bounded_star(seed)
        with tr.span("sim.workload_driver.scripts") as lowered:
            if case == "star":
                scripts = simcore_scripts(names, max(2, STAR_FETCHES // div), universe)
            elif case == "tree":
                scripts = simcore_scripts(names, max(2, TREE_FETCHES // div), universe)
            elif case == "fat_tree":
                scripts = _ircache_scripts(
                    max(32, FAT_TREE_REQUESTS // div), seed, names, CONTENT_PREFIX
                )
            else:
                scripts = _ircache_scripts(
                    max(32, FALLBACK_REQUESTS // div), seed, names, SIMCORE_PREFIX
                )
        return net, scripts, built.net, lowered.net

    def setup(self, tr: Tracer, out: Samples) -> None:
        # Warm-up: every case once at an eighth of a round.
        for case in CASES:
            net, scripts, _, _ = self._build(case, self.div * 8, tr)
            run_scripts(net, scripts, kernel="auto")

    # ------------------------------------------------------------------
    def _run(
        self, tr: Tracer, net: Network, scripts: List[ConsumerScript]
    ) -> Tuple[TopologyObservables, float, float]:
        """``run_scripts(kernel="auto")``; a traced run makes the same two
        calls itself so that compile and kernel get a span each.
        Returns ``(observables, compile wall, kernel wall)``."""
        if not tr.record:
            with tr.span("sim.batch.run_scripts"):
                return run_scripts(net, scripts, kernel="auto"), 0.0, 0.0
        with tr.span("sim.batch.compile") as compiled:
            try:
                program = compile_topology(net, scripts)
            except BatchCompileError:
                program = None
        if program is None:
            with tr.span("sim.engine.reference"):
                return run_scripts_reference(net, scripts), compiled.net, 0.0
        with tr.span("sim.batch.kernel") as kernel:
            obs = run_compiled(program)
        return obs, compiled.net, kernel.net

    def round(self, tr: Tracer, out: Samples) -> None:
        hops: Dict[str, int] = {}
        walls: Dict[str, float] = {}
        scripts_wall = compile_wall = kernel_wall = 0.0
        events = cs_hits = 0
        for case in CASES:
            with tr.span(f"case.{case}", group=True) as span:
                net, scripts, built, lowered = self._build(case, self.div, tr)
                obs, compiled, kernel = self._run(tr, net, scripts)
            fetches = sum(
                isinstance(step, FetchStep) for s in scripts for step in s.steps
            )
            self.checks.ops(
                fetches, fetches - obs.total_delivered, f"{case}: undelivered fetches"
            )
            expected = "reference" if case == "fallback" else "batch"
            self.checks.gate(
                obs.kernel == expected,
                f"{case}: ran on the {obs.kernel} engine, expected {expected}",
            )
            hops[case] = obs.total_hops
            # Script lowering + run_scripts; the topology build is not priced.
            walls[case] = span.net - built
            events += obs.events_processed
            cs_hits += obs.total_cache_hits
            scripts_wall += lowered
            if tr.record and case != "fallback":
                compile_wall += compiled
                kernel_wall += kernel
                out.add(f"sim.batch.kernel_hops_per_s.{case}", obs.total_hops / kernel)
        batch_hops = sum(hops[case] for case in BATCH_CASES)
        out.add("hops_per_s", batch_hops / sum(walls[case] for case in BATCH_CASES))
        out.add("fallback_hops_per_s", hops["fallback"] / walls["fallback"])
        if not tr.record:
            return
        out.add("sim.workload_driver.scripts_s", scripts_wall)
        out.add("sim.batch.compile_s", compile_wall)
        out.add("sim.batch.kernel_s", kernel_wall)
        out.add("sim.batch.compile_share", compile_wall / (compile_wall + kernel_wall))
        out.add(
            "sim.batch.fallback_share", hops["fallback"] / (batch_hops + hops["fallback"])
        )
        out.add("sim.engine.events", events)
        out.add("ndn.forwarder.cs_hits", cs_hits)
        out.add("ndn.link.packet_hops", batch_hops + hops["fallback"])

    # ------------------------------------------------------------------
    def extras(self, tr: Tracer, out: Samples) -> None:
        small = self.div * REFERENCE_DIVISOR
        for case in BATCH_CASES:
            with tr.span(f"reference.{case}", group=True):
                net, scripts, _, _ = self._build(case, small, tr)
                with tr.span("sim.engine.reference") as span:
                    oracle = run_scripts_reference(net, scripts)
                net, scripts, _, _ = self._build(case, small, tr)
                with tr.span("sim.batch.run_scripts"):
                    batch = run_scripts(net, scripts, kernel="batch")
            self.checks.gate(
                diff_observables(oracle, batch) == [],
                f"{case}: batch observables differ from the reference engine's",
            )
            out.add(f"sim.engine.ref_hops_per_s.{case}", oracle.total_hops / span.net)
        self._producer_alone(tr, out)

    def _producer_alone(self, tr: Tracer, out: Samples) -> None:
        """``Producer.receive_interest`` over the fallback case's distinct
        names, auto-generating as ``Network.add_producer`` configures it."""
        _, scripts, _, _ = self._build(
            "fallback", self.div, Tracer("scratch", record=False)
        )
        names = list(
            dict.fromkeys(
                step.name
                for script in scripts
                for step in script.steps
                if isinstance(step, FetchStep)
            )
        )
        producer = Producer(Engine(), prefix=SIMCORE_PREFIX, producer_id="P")
        face = _NullFace()
        interests = [Interest(name=Name.parse(name)) for name in names]
        with tr.span("ndn.apps.producer.receive_interest") as span:
            for interest in interests:
                producer.receive_interest(interest, face)
        self.checks.gate(
            producer.monitor.counter("data_served") == len(names),
            "producer alone did not serve every distinct name",
        )
        out.add("ndn.apps.producer.serve_us", span.net / len(names) * 1e6)
