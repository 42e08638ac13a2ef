"""Differential validation: every fast path against its oracle.

Two bit-identity contracts, one report shape
(:class:`CaseResult` / :class:`DifferentialReport`):

* :func:`validate_replay_differential` — every trace representation
  (``generate()``, the sharded cache, the TSV import) through the sweep's
  own dispatch (:func:`~repro.perf.parallel.run_replay_sweep`: the
  stack-distance grid or the replay kernel) vs the reference
  :func:`~repro.workload.replay.replay` of the generator stream:
  identical :class:`~repro.workload.replay.ReplayStats` for every
  :class:`~repro.perf.parallel.ReplaySpec`; plus the packet simulator
  driven from the stream vs from its compiled twin,
* :func:`validate_topology_differential` — the batch simulation kernel
  vs the reference engine over whole registry topologies: identical
  :class:`~repro.sim.batch.script.TopologyObservables`.

The oracle reads the *source* stream, never a compiled trace under
test, so an interning defect shows as a mismatch instead of identically
on both sides.

Scheme and marking objects are stateful (they own RNG streams), so each
leg gets a **freshly built** set from the same seed — sharing one
object would advance its RNG in the first run and desynchronize the
second, reporting a false mismatch.
"""

from __future__ import annotations

import itertools
import pickle
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple

from repro.core.schemes.registry import SchemeSpec
from repro.ndn.network import Network
from repro.ndn.topology import CONTENT_PREFIX, TOPOLOGIES
from repro.perf.parallel import ReplaySpec, _scheme_of, build_scheme, run_replay_sweep
from repro.perf.simcore import simcore_scripts
from repro.sim.batch.script import (
    ConsumerScript,
    diff_observables,
    run_scripts_reference,
)
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator
from repro.workload.lru_grid import runs_on_grid
from repro.workload.marking import ContentMarking, RequestMarking
from repro.workload.replay import ReplayStats, replay
from repro.workload.sharded import compile_stream
from repro.workload.streaming import TsvWorkload, save_tsv


def diff_replay_stats(oracle: ReplayStats, fast: ReplayStats) -> List[str]:
    """Field-by-field differences, empty when bit-identical."""
    mismatches: List[str] = []
    for f in fields(ReplayStats):
        a = getattr(oracle, f.name)
        b = getattr(fast, f.name)
        if a != b:
            mismatches.append(f"{f.name}: oracle={a!r} fast={b!r}")
    return mismatches


@dataclass
class CaseResult:
    """Outcome of one cross-checked configuration.

    ``label`` and ``mismatches`` are the verdict every differential
    fills in.  The rest is the evidence a test may want to read, set by
    the differentials that have it: the ``case`` that was run, the
    ``oracle`` leg's payload, and the leg under test — ``fast`` (a replay
    sweep's :class:`ReplayStats`) or ``batch`` (batch simulation kernel
    :class:`~repro.sim.batch.script.TopologyObservables`).
    """

    label: str
    mismatches: List[str]
    case: object = None
    oracle: object = None
    fast: object = None
    batch: object = None

    @property
    def ok(self) -> bool:
        """True when the two legs agreed bit-for-bit."""
        return not self.mismatches


@dataclass
class DifferentialReport:
    """All case results of one differential validation run."""

    results: List[CaseResult]
    #: Length of the replayed trace (replay-based differentials only).
    trace_requests: Optional[int] = None
    #: Free-form evidence for the status line (e.g. checks run).
    note: str = ""

    @property
    def ok(self) -> bool:
        """True when every configuration agreed."""
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> List[CaseResult]:
        """The disagreeing configurations."""
        return [r for r in self.results if not r.ok]

    def status(self) -> str:
        """One line: the verdict and what it covered."""
        n = len(self.results)
        scope = f"{n} case{'' if n == 1 else 's'}"
        if self.trace_requests is not None:
            scope += f", {self.trace_requests} requests"
        if self.note:
            scope += f"; {self.note}"
        return f"{'ok' if self.ok else 'MISMATCH'} ({scope})"

    def summary(self) -> str:
        """One line per case, pass/fail."""
        lines = []
        for r in self.results:
            status = "ok" if r.ok else "MISMATCH " + "; ".join(r.mismatches)
            lines.append(f"{r.label}: {status}")
        return "\n".join(lines)


# ======================================================================
# Replay differential: every trace representation, through the sweep's
# dispatch, against the reference replay of the source stream
# ======================================================================
def default_replay_cases(seed: int = 0) -> List[ReplaySpec]:
    """Every scheme family at a bounded and an unbounded cache under
    per-request marking; FIFO, LFU, random and the refresh ablation
    (the replay kernel's corners); and Figure 5(a)'s four algorithms
    under its per-content marking at one bounded size (grid points)."""
    from repro.analysis.experiments import fig5a_schemes

    families = ("no-privacy", "always-delay", "uniform", "exponential")
    cases = [
        ReplaySpec(SchemeSpec(name), size, RequestMarking(0.3, seed=seed), seed=seed)
        for name in families
        for size in (64, None)
    ]
    cases += [
        ReplaySpec(SchemeSpec("no-privacy"), 64, seed=seed),
        ReplaySpec(SchemeSpec("uniform"), 48, ContentMarking(0.25, salt=seed),
                   policy="fifo", seed=seed),
        ReplaySpec(SchemeSpec("exponential"), 96, RequestMarking(0.25, seed=seed),
                   policy="lfu", seed=seed),
        ReplaySpec(SchemeSpec("always-delay"), None, RequestMarking(0.25, seed=seed),
                   policy="random", seed=seed),
        ReplaySpec(SchemeSpec("uniform"), 64, RequestMarking(0.3, seed=seed),
                   seed=seed, refresh_delayed_hits=False),
    ]  # fmt: skip
    cases += [
        ReplaySpec(scheme, 64, ContentMarking(0.2, salt=seed), seed=seed)
        for scheme in fig5a_schemes()
    ]
    return cases


def _case_label(spec: ReplaySpec) -> str:
    """The configuration a replay case runs, spelled out."""
    cap = spec.cache_size if spec.cache_size is not None else "inf"
    marking = spec.marking
    kind = type(marking).__name__.replace("Marking", "").lower()
    mark = "none" if marking is None else kind
    if hasattr(marking, "fraction"):
        mark += f"({marking.fraction})"
    tag = f"{spec.scheme}/{spec.policy}/cap={cap}/mark={mark}/seed={spec.seed}"
    return tag if spec.refresh_delayed_hits else tag + "/no-refresh"


def _simulator_case(seed: int, requests: int) -> CaseResult:
    """The packet simulator driven from a streaming workload vs from its
    compiled twin through the same
    :func:`~repro.sim.workload_driver.scripts_from_workload` driver:
    identical scripts and identical observables (reference engine on
    both legs; they differ only in the workload's representation)."""
    from repro.sim.workload_driver import scripts_from_workload

    config = IrcacheConfig(
        requests=requests,
        users=12,
        objects=120,
        sites=16,
        session_locality=0.3,
        duration_hours=0.25,
        seed=seed + 1,
    )

    def edge() -> Network:
        # Fresh per leg: the registry star, a uniform scheme on its router.
        return TOPOLOGIES["star"](
            seed=seed,
            scheme=build_scheme("uniform", seed=seed),
            cache_capacity=64,
            consumers=4,
        ).network

    net_compiled, net_stream = edge(), edge()
    consumers = list(net_compiled.consumers)
    driver_kwargs = dict(
        uri_prefix=CONTENT_PREFIX,
        time_scale=1e-3,
        timeout=5000.0,
        private_period=7,
    )
    scripts_compiled = scripts_from_workload(
        IrcacheGenerator(config).generate(), consumers, **driver_kwargs
    )
    scripts_stream = scripts_from_workload(
        IrcacheGenerator(config).stream(), consumers, **driver_kwargs
    )
    mismatches: List[str] = []
    if scripts_compiled != scripts_stream:
        mismatches.append("driver scripts differ between representations")
    obs_compiled = run_scripts_reference(net_compiled, scripts_compiled)
    obs_stream = run_scripts_reference(net_stream, scripts_stream)
    mismatches.extend(diff_observables(obs_compiled, obs_stream, ("compiled", "stream")))
    if obs_stream.total_delivered == 0:
        mismatches.append("streaming simulator leg delivered nothing")
    return CaseResult("simulator:star-edge", mismatches)


def validate_replay_differential(
    cases: Optional[Sequence[ReplaySpec]] = None,
    seed: int = 0,
    requests: int = 2500,
    sim_requests: int = 500,
) -> DifferentialReport:
    """Cross-check every trace representation against the reference
    :func:`~repro.workload.replay.replay` of the generator stream.

    Three legs — ``generate()`` (in RAM), the
    :func:`~repro.workload.sharded.compile_stream` shards (mmap'd) and
    the TSV import — each run every case through
    :func:`~repro.perf.parallel.run_replay_sweep`, the dispatch Figure 5
    uses: a grid point on the stack-distance grid, any other on the
    replay kernel.  Each (leg, case) result must equal, field for field,
    the oracle's replay of the *source* stream, which no interning pass
    touches.  Every oracle run replays its own pickle copy of the case
    (schemes and markings are RNG-stateful).  One more case drives the
    packet simulator from both representations (:func:`_simulator_case`).

    The report's note says how many cases took the grid path.
    """
    import tempfile

    if cases is None:
        cases = default_replay_cases(seed=seed)
    config = IrcacheConfig(
        requests=requests,
        users=24,
        objects=400,
        sites=30,
        session_locality=0.3,
        duration_hours=1.0,
        seed=seed,
    )
    stream = IrcacheGenerator(config).stream()
    with tempfile.TemporaryDirectory(prefix="repro-replaydiff-") as tmp:
        sharded = compile_stream(stream, tmp, shard_size=max(1, requests // 7))
        sharded.verify()
        tsv = TsvWorkload(f"{tmp}/trace.tsv")
        save_tsv(stream, tsv.path)
        legs = {
            "generate": IrcacheGenerator(config).generate(),
            "shards": sharded,
            "tsv": tsv,
        }
        swept = {leg: run_replay_sweep(cases, trace=trace) for leg, trace in legs.items()}
    results: List[CaseResult] = []
    on_grid = 0
    for index, case in enumerate(cases):
        spec = pickle.loads(pickle.dumps(case))
        scheme = _scheme_of(spec)
        on_grid += runs_on_grid(scheme, spec.policy, spec.refresh_delayed_hits)
        oracle = replay(
            stream,
            scheme=scheme,
            marking=spec.marking,
            cache_size=spec.cache_size,
            policy=spec.policy,
            fetch_delay=spec.fetch_delay,
            seed=spec.seed,
            refresh_delayed_hits=spec.refresh_delayed_hits,
        )
        for leg, stats in swept.items():
            results.append(
                CaseResult(
                    label=f"{leg}:{_case_label(case)}",
                    mismatches=diff_replay_stats(oracle, stats[index]),
                    case=case,
                    oracle=oracle,
                    fast=stats[index],
                )
            )
    results.append(_simulator_case(seed, sim_requests))
    return DifferentialReport(
        results=results,
        trace_requests=requests,
        note=f"{on_grid} of {len(cases)} specs on the grid",
    )


# ======================================================================
# Topology differential: reference engine vs the batch kernel
# ======================================================================
@dataclass(frozen=True)
class TopologyCase:
    """One (topology, scheme, policy, workload) configuration to
    cross-check between the reference engine and the batch kernel.

    Every field either reaches the registry builder / the script helper
    or the case fails to build: there is no silently ignored setting.
    """

    #: A :data:`repro.ndn.topology.TOPOLOGIES` name.  Every topology runs
    #: the interleaved workload of
    #: :func:`~repro.perf.simcore.simcore_scripts` on all its consumers,
    #: except "rocketfuel", which runs the placement sweep's probe
    #: campaign (the workload fields below do not apply).
    topology: str
    #: Privacy scheme kind, a fresh instance on *every* router.
    scheme: str = "no-privacy"
    policy: str = "lru"
    #: Cache-admission strategy kind (:mod:`repro.ndn.strategy`) on every
    #: router; "lce" is the seed's cache-everywhere behavior.
    caching: str = "lce"
    #: Forwarding strategy ("best-route" | "multicast"); the batch kernel
    #: only supports best-route, so a multicast case must set
    #: :attr:`expect_fallback`.
    forwarding: str = "best-route"
    #: True for configurations the batch compiler must *refuse*: the
    #: batch leg then runs through ``run_scripts(kernel="auto")`` and the
    #: case asserts the transparent reference fallback (engine recorded
    #: as "reference", observables still identical).
    expect_fallback: bool = False
    requests_per_consumer: int = 30
    #: Consumer wait budget; set below the topology RTT to exercise the
    #: timeout / PIT-expiry / retransmission paths.
    timeout: float = 4000.0
    #: Every Nth fetch carries the privacy mark (0 disables marking).
    private_period: int = 3
    cache_capacity: int = 8
    seed: int = 0

    @property
    def label(self) -> str:
        """Human-readable configuration tag."""
        tag = (
            f"{self.topology}/{self.scheme}/{self.policy}/{self.caching}"
            f"/to={self.timeout}/seed={self.seed}"
        )
        if self.expect_fallback:
            tag += "/fallback"
        return tag


#: Shape parameters the grid builds a registry topology with (anything
#: not listed is the builder's default): a small star, and non-zero
#: per-packet service times on the tree's routers and producer so equal-
#: time ties between forwarding and processing events are exercised.
_GRID_SHAPES = {
    "star": {"consumers": 4},
    "tree": {"processing_delay": 0.2, "producer_delay": 0.4},
}


def default_topology_cases(seed: int = 0) -> List[TopologyCase]:
    """The CI grid: sim-core shapes plus the fig3 LAN, producer-privacy
    and local-host panels, a fat tree and one placement campaign on the
    ISP graph, covering NoPrivacy and the privacy schemes, all four
    replacement policies, every caching strategy, never-cache routers,
    a small-timeout retransmission case, the two attack-harness shapes
    on their unbounded defaults, and one asserted compiler fallback."""
    return [
        TopologyCase("star", "no-privacy", "lru", seed=seed),
        TopologyCase("star", "uniform", "random", seed=seed),
        TopologyCase("tree", "exponential", "lfu", seed=seed),
        # On the grid's tree a producer round trip takes 6.8 ms (5.2 ms of
        # links, six router crossings at 0.2 ms, 0.4 ms at the producer)
        # and a hit at the root 4.2 ms: a 4.3 ms budget delivers what some
        # cache on the path still holds (about a third of the fetches) and
        # times out on the rest, racing late Data against the consumer's
        # next, same-name-aggregating interests.
        TopologyCase("tree", "no-privacy", "fifo", timeout=4.3, seed=seed),
        TopologyCase("fig3a_lan", "no-privacy", "lru", seed=seed),
        TopologyCase("fig3a_lan", "uniform", "lru", seed=seed),
        TopologyCase("fig3a_lan", "always-delay", "lru", seed=seed),
        # Fig. 3(c): never_cache access routers (cache_skipped must
        # agree); Fig. 3(d): sub-millisecond IPC faces.
        TopologyCase("fig3c_wan_producer", "no-privacy", "lru", seed=seed),
        TopologyCase("fig3c_wan_producer", "uniform", "lru", caching="lcd", seed=seed),
        TopologyCase("fig3d_local_host", "exponential", "lru", seed=seed),
        # Strategy × scheme × replacement: every registered caching
        # strategy, crossed with randomized replacement and the privacy
        # schemes so strategy and policy draws interleave on one stream
        # ordering in both engines.
        TopologyCase("tree", "no-privacy", "lru", caching="lcd", seed=seed),
        TopologyCase("tree", "uniform", "random", caching="probcache", seed=seed),
        TopologyCase("tree", "exponential", "lfu", caching="bernoulli", seed=seed),
        TopologyCase("star", "no-privacy", "fifo", caching="edge", seed=seed),
        TopologyCase("tree", "always-delay", "lru", caching="cl4m", seed=seed),
        TopologyCase("fig3a_lan", "uniform", "lru", caching="bernoulli", seed=seed),
        TopologyCase("fat_tree", "uniform", "lru", caching="lcd", seed=seed),
        # FIFO where its victims show: the tree's FIFO cases never tell a
        # FIFO that refreshes on access from one that does not.
        TopologyCase("fat_tree", "uniform", "fifo", caching="lcd", seed=seed),
        TopologyCase("fat_tree", "no-privacy", "random", caching="probcache", seed=seed),
        TopologyCase("fat_tree", "exponential", "lru", caching="cl4m", seed=seed),
        # The frontier's own workload: one probe campaign, 42 CL4M routers.
        TopologyCase("rocketfuel", "uniform", "lru", caching="cl4m", seed=seed),
        # The attack harnesses' shapes, unbounded, each with a silent producer.
        TopologyCase("defense_tree", "uniform", "lru", seed=seed),
        TopologyCase("overload_star", "exponential", "random", caching="lcd", seed=seed),
        # Multicast forwarding is outside the kernel's subset: the case
        # must *fall back* transparently, not diverge (the tree has one
        # upstream per prefix, so multicast forwards identically).
        TopologyCase(
            "tree",
            "no-privacy",
            "lru",
            caching="lcd",
            forwarding="multicast",
            expect_fallback=True,
            seed=seed,
        ),
    ]


def _build_topology_case(
    case: TopologyCase,
) -> Tuple[Network, List[ConsumerScript]]:
    """Build a **fresh** network + scripts for ``case``.

    Called once per engine: schemes and jittery links are RNG-stateful,
    so sharing a network between runs would desynchronize the second run
    and report a false mismatch (the replay differential's rule).
    """
    if case.topology not in TOPOLOGIES:
        raise ValueError(
            f"unknown topology {case.topology!r}; "
            f"choose from {sorted(TOPOLOGIES)}"
        )
    # Distinct scheme instance per router (the batch compiler rejects
    # shared scheme objects), deterministic per (case seed, router ordinal).
    ordinal = itertools.count(1)
    topo = TOPOLOGIES[case.topology](
        seed=case.seed,
        scheme=lambda: build_scheme(
            case.scheme, seed=case.seed * 101 + next(ordinal)
        ),
        cache_capacity=case.cache_capacity,
        caching=case.caching,
        policy=case.policy,
        forwarding=case.forwarding,
        **_GRID_SHAPES.get(case.topology, {}),
    )
    if case.topology == "rocketfuel":
        # Imported here: the attack suite is not needed by the replay and
        # deployment differentials that share this module.
        from repro.attacks.timing import probe_attack_campaign

        hot = [f"{CONTENT_PREFIX}/private/hot-{i}" for i in range(10)]
        cold = [f"{CONTENT_PREFIX}/private/cold-{i}" for i in range(10)]
        # The placement frontier's campaign (``run_probe_attack``).
        _, scripts = probe_attack_campaign(
            topo, hot, cold, f"{CONTENT_PREFIX}/ref", warmup=1200.0, private=True
        )
        return topo.network, scripts
    names = list(topo.network.consumers)
    # Four objects per consumer, the sim-core workloads' own ratio.
    return topo.network, simcore_scripts(
        names,
        case.requests_per_consumer,
        universe=4 * len(names),
        timeout=case.timeout,
        private_period=case.private_period,
    )


def validate_topology_differential(
    cases: Optional[Sequence[TopologyCase]] = None,
    seed: int = 0,
) -> DifferentialReport:
    """Cross-check the reference engine vs the batch kernel over whole
    topologies: delivery counts, per-consumer RTT streams, per-link
    packet tallies, per-router counters and ``stats_summary``, event
    counts, and the simulated end time must all be bit-identical.

    Each engine gets a freshly built (network, scripts) pair per case.
    The batch leg goes through :func:`repro.sim.batch.kernel.run_scripts_batch`
    directly — a topology that cannot compile is a case *failure* here,
    not a silent fallback (that transparency belongs to ``run_scripts``).
    Cases with :attr:`TopologyCase.expect_fallback` invert that: their
    batch leg runs ``run_scripts(kernel="auto")`` and the case fails
    unless the compiler refused (engine recorded as ``"reference"``) while
    the observables still match the oracle leg.
    """
    from repro.sim.batch import run_scripts
    from repro.sim.batch.kernel import run_scripts_batch

    if cases is None:
        cases = default_topology_cases(seed=seed)
    results: List[CaseResult] = []
    for case in cases:
        net, scripts = _build_topology_case(case)
        oracle = run_scripts_reference(net, scripts)
        net, scripts = _build_topology_case(case)
        if case.expect_fallback:
            batch = run_scripts(net, scripts, kernel="auto")
            mismatches = diff_observables(oracle, batch)
            if batch.kernel != "reference":
                mismatches.append(
                    f"expected a transparent compiler fallback but the "
                    f"case ran on the {batch.kernel!r} engine"
                )
        else:
            batch = run_scripts_batch(net, scripts)
            mismatches = diff_observables(oracle, batch)
        results.append(
            CaseResult(
                label=case.label,
                mismatches=mismatches,
                case=case,
                oracle=oracle,
                batch=batch,
            )
        )
    return DifferentialReport(results=results)
