"""Privacy-vs-placement frontier: caching strategy × scheme × topology.

The paper's countermeasures (Section V) trade adversary accuracy against
cache utility at ONE shared router.  On multi-hop graphs a second,
orthogonal axis appears: *where* copies are placed by the on-path
cache-admission strategy (:mod:`repro.ndn.strategy`).  A strategy that
keeps content off the probe router (LCD before the copy migrates,
ProbCache far from the producer) suppresses the timing oracle much like
a privacy scheme does — but it also moves the utility cost elsewhere in
the network instead of burning it in delays.

:func:`run_placement_sweep` quantifies that frontier.  For every
(topology, scheme, strategy) point it runs the *actual* adversary
procedure (:func:`~repro.attacks.timing.run_probe_attack`: the
:class:`~repro.attacks.timing.CacheProbeAttack` decision procedure with
ground truth, scripted so it rides the batch kernel, as in
:func:`~repro.attacks.timing.attack_accuracy`) over fresh seeded
topologies and reads the router counters afterwards:

* ``probe_accuracy`` — fraction of the adversary's hit/miss verdicts
  that match ground truth (0.5 ≈ coin flip, the privacy goal),
* ``probe_hit_rate`` — observable hit fraction at the probe router,
  ``(cs_hit + cs_disguised_hit) / interest_in``,
* ``network_hit_rate`` — the same ratio summed over every router,
* ``utility`` — the paper's u(c) at the probe router: undisguised hits
  over all cache-resident requests,
  ``cs_hit / (cs_hit + cs_disguised_hit + cs_forced_miss)``,
* ``cache_declined`` — admissions refused by the strategy network-wide
  (0 for LCE, by construction),
* ``engine`` — which simulation engine produced the point: ``"batch"``,
  or ``"reference: <reason>"`` when the batch compiler had to refuse.

The points of one topology differ only in the probe router's scheme
and the routers' caching strategy, so the sweep builds and compiles one
shape per (topology, trial) — a template with neither — and rebinds it
per point (:meth:`~repro.sim.batch.compile.CompiledTopology.rebind`:
fresh streams from the trial's seed, the point's scheme and strategy,
lowered by the compiler's own code).  The numbers are those of a fresh
build per point, bit for bit.  A shape the batch compiler refuses, or a
binding it refuses, runs that point as before: a fresh build on
:func:`~repro.sim.batch.run_scripts`, whose reference fallback names
the reason in ``engine``.

Use ``repro-experiments strategy`` to run the sweep from a shell; it
writes the frontier as a JSON artifact (the committed
``strategy_frontier.json`` is its output at the defaults).  How fast
the sweep runs is the perf ledger's ``frontier_sweep`` workload.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.attacks.timing import (
    check_delivered,
    judge_probe_attack,
    probe_attack_campaign,
    run_campaign,
)
from repro.ndn.strategy import STRATEGIES
from repro.ndn.topology import SCALE_GRAPHS, TOPOLOGIES, AttackTopology
from repro.perf.parallel import build_scheme
from repro.sim.batch import (
    BatchCompileError,
    CompiledTopology,
    ConsumerScript,
    TopologyObservables,
    compile_topology,
    run_compiled,
)

#: The sweep's own grid, a view of the registry: the paper's LAN panel
#: (the single-router baseline, where placement cannot matter) plus the
#: multi-hop scale graphs (where it does).  Any registry name is a valid
#: sweep topology; these four are what the committed frontier covers.
SWEEP_TOPOLOGIES: Dict[str, Callable[..., AttackTopology]] = {
    name: TOPOLOGIES[name] for name in ("fig3a_lan", *SCALE_GRAPHS)
}

#: Scheme grid: the no-privacy baseline plus the two tunable schemes.
SWEEP_SCHEMES = ("no-privacy", "uniform", "exponential")

#: Strategy grid: every registered kind, in registry order.
SWEEP_STRATEGIES = tuple(STRATEGIES)


@dataclass(frozen=True)
class PlacementPoint:
    """One (topology, scheme, strategy) cell of the frontier."""

    topology: str
    scheme: str
    strategy: str
    probe_accuracy: float
    probe_hit_rate: float
    network_hit_rate: float
    utility: float
    cache_declined: int
    verdicts: int
    engine: str = "batch"


@dataclass
class PlacementFrontier:
    """The full sweep result plus the configuration that produced it."""

    points: List[PlacementPoint] = field(default_factory=list)
    trials: int = 0
    targets_per_trial: int = 0
    cache_capacity: Optional[int] = None
    seed: int = 0

    def best_privacy(self) -> PlacementPoint:
        """The point whose adversary is closest to coin-flipping."""
        return min(self.points, key=lambda p: abs(p.probe_accuracy - 0.5))

    def to_dict(self) -> dict:
        """JSON-serializable frontier (the artifact format)."""
        return {
            "experiment": "strategy_placement_frontier",
            "trials": self.trials,
            "targets_per_trial": self.targets_per_trial,
            "cache_capacity": self.cache_capacity,
            "seed": self.seed,
            "points": [asdict(p) for p in self.points],
        }

    def render(self) -> str:
        """Fixed-width table, one row per sweep point."""
        header = (
            f"{'topology':<12} {'scheme':<12} {'strategy':<10} "
            f"{'accuracy':>8} {'hit@R':>7} {'hit@net':>7} "
            f"{'u(c)':>6} {'declined':>8}"
        )
        lines = [header, "-" * len(header)]
        for p in self.points:
            lines.append(
                f"{p.topology:<12} {p.scheme:<12} {p.strategy:<10} "
                f"{p.probe_accuracy:>8.3f} {p.probe_hit_rate:>7.3f} "
                f"{p.network_hit_rate:>7.3f} {p.utility:>6.3f} "
                f"{p.cache_declined:>8d}"
            )
        return "\n".join(lines)


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


@dataclass
class _Trial:
    """One (topology, trial) of a sweep: the template topology (no
    scheme, no caching strategy), its probe campaign, and the compiled
    program every point rebinds (``None`` when the shape does not lower)."""

    topo: AttackTopology
    probes: List[str]
    scripts: List[ConsumerScript]
    program: Optional[CompiledTopology]


def _trial(
    builder: Callable[..., AttackTopology],
    trial: int,
    seed: int,
    targets_per_trial: int,
    cache_capacity: Optional[int],
) -> _Trial:
    """Build and compile ``trial``'s template at ``seed``."""
    topo = builder(seed=seed, cache_capacity=cache_capacity)
    prefix = str(topo.content_prefix)
    half = targets_per_trial // 2
    # The victim's content carries the reserved ``/private/`` component
    # (producer-driven marking): consumer-only marking is demoted by
    # the adversary's own unmarked probe under the trigger rule, which
    # would measure every scheme as no-privacy.
    hot = [f"{prefix}/private/p{trial}-hot-{i}" for i in range(half)]
    cold = [f"{prefix}/private/p{trial}-cold-{i}" for i in range(half)]
    # The victim also marks their requests private (the paper's
    # trigger rule: only marked content is disguised by the scheme).
    probes, scripts = probe_attack_campaign(
        topo,
        hot,
        cold,
        reference=f"{prefix}/p{trial}-ref",
        warmup=1000.0 + targets_per_trial * 10.0,
        private=True,
    )
    try:
        program = compile_topology(topo.network, scripts)
    except BatchCompileError:
        program = None
    return _Trial(topo, probes, scripts, program)


def _run_trial(
    shaped: _Trial,
    builder: Callable[..., AttackTopology],
    seed: int,
    scheme: str,
    strategy: str,
    cache_capacity: Optional[int],
) -> TopologyObservables:
    """One point's campaign on one trial: the shape rebound to the
    point, or a fresh build when the compiler refuses either."""
    if shaped.program is not None:
        try:
            program = shaped.program.rebind(
                seed,
                build_scheme(scheme, seed=seed * 31 + 1),
                strategy,
                probe=shaped.topo.router.name,
            )
        except BatchCompileError:
            pass
        else:
            observed = run_compiled(program)
            check_delivered(shaped.scripts, observed)
            return observed
    topo = builder(
        seed=seed,
        scheme=build_scheme(scheme, seed=seed * 31 + 1),
        cache_capacity=cache_capacity,
        caching=strategy,
    )
    return run_campaign(topo, shaped.scripts)


def run_placement_point(
    topology: str,
    scheme: str,
    strategy: str,
    trials: int = 3,
    targets_per_trial: int = 20,
    cache_capacity: Optional[int] = 32,
    base_seed: int = 1000,
) -> PlacementPoint:
    """One frontier cell: adversary accuracy + utility under ground truth.

    Per trial the topology is fresh (empty caches, new RNG streams, a
    fresh scheme instance at the probe router — scheme objects are
    RNG-stateful and must never be reused across trials).  The user
    prefetches half the target set, the adversary runs the full probe
    procedure (as a scripted campaign), and the verdicts are scored
    against ground truth; router counters accumulate over trials before
    the rates are formed.
    """
    return _placement_point(
        topology, scheme, strategy, trials, targets_per_trial,
        cache_capacity, base_seed, {},
    )  # fmt: skip


def _placement_point(
    topology: str,
    scheme: str,
    strategy: str,
    trials: int,
    targets_per_trial: int,
    cache_capacity: Optional[int],
    base_seed: int,
    shapes: Dict[int, _Trial],
) -> PlacementPoint:
    """:func:`run_placement_point` on the trials' shapes in ``shapes``
    (built here on first use; a sweep keeps them across its points)."""
    builder = TOPOLOGIES[topology]
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from {sorted(STRATEGIES)}"
        )
    if targets_per_trial < 2:
        raise ValueError(
            f"targets_per_trial must be >= 2, got {targets_per_trial}"
        )
    correct = total = 0
    probe_ctr: Counter = Counter()  # the probe router's monitor counters
    net_ctr: Counter = Counter()  # every router's, summed
    engine = "batch"  # or the first trial's fallback reason
    for trial in range(trials):
        seed = base_seed + trial
        shaped = shapes.get(trial)
        if shaped is None:
            shaped = shapes[trial] = _trial(
                builder, trial, seed, targets_per_trial, cache_capacity
            )
        observed = _run_trial(shaped, builder, seed, scheme, strategy, cache_capacity)
        verdicts, right = judge_probe_attack(
            observed.rtts[shaped.topo.adversary.name],
            shaped.probes,
            targets_per_trial // 2,
        )
        correct += right
        total += len(verdicts)
        if engine == "batch":
            engine = observed.engine
        probe_ctr.update(observed.router_counters[shaped.topo.router.name])
        for counters in observed.router_counters.values():
            net_ctr.update(counters)
    if total == 0:
        raise RuntimeError(
            f"{topology}/{scheme}/{strategy}: attack produced no verdicts"
        )
    resident = (
        probe_ctr["cs_hit"]
        + probe_ctr["cs_disguised_hit"]
        + probe_ctr["cs_forced_miss"]
    )
    return PlacementPoint(
        topology=topology,
        scheme=scheme,
        strategy=strategy,
        probe_accuracy=correct / total,
        probe_hit_rate=_ratio(
            probe_ctr["cs_hit"] + probe_ctr["cs_disguised_hit"],
            probe_ctr["interest_in"],
        ),
        network_hit_rate=_ratio(
            net_ctr["cs_hit"] + net_ctr["cs_disguised_hit"],
            net_ctr["interest_in"],
        ),
        utility=_ratio(probe_ctr["cs_hit"], resident),
        cache_declined=net_ctr["cache_declined"],
        verdicts=total,
        engine=engine,
    )


def run_placement_sweep(
    topologies: Sequence[str] = ("fig3a_lan", "fat_tree"),
    schemes: Sequence[str] = SWEEP_SCHEMES,
    strategies: Sequence[str] = SWEEP_STRATEGIES,
    trials: int = 2,
    targets_per_trial: int = 20,
    cache_capacity: Optional[int] = 32,
    seed: int = 0,
) -> PlacementFrontier:
    """The full strategy × scheme × topology sweep: one compiled shape
    per (topology, trial), rebound per point."""
    unknown = [t for t in topologies if t not in TOPOLOGIES]
    if unknown:
        raise ValueError(
            f"unknown topologies {unknown!r}; choose from {sorted(TOPOLOGIES)}"
        )
    frontier = PlacementFrontier(
        trials=trials,
        targets_per_trial=targets_per_trial,
        cache_capacity=cache_capacity,
        seed=seed,
    )
    for topology in topologies:
        shapes: Dict[int, _Trial] = {}
        for scheme in schemes:
            for strategy in strategies:
                frontier.points.append(
                    _placement_point(
                        topology,
                        scheme,
                        strategy,
                        trials,
                        targets_per_trial,
                        cache_capacity,
                        1000 + seed,
                        shapes,
                    )
                )
    return frontier
