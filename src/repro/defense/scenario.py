"""Closed-loop defense scenarios: seeded attacks against a live defense.

The acceptance demo for the defense loop (ROADMAP item 5): a two-level
tree topology carries honest Zipf traffic while a seeded attack window
(:mod:`repro.faults.adversarial`) runs from one leaf.  The run reports
detection latency (alarm time vs. attack start, and attacker requests
spent before detection), mitigation activity, and the honest consumers'
*edge hit rate* — the utility metric mitigation must restore.

Topology (all :class:`~repro.ndn.link.FixedDelay` links, so serving tier
is exactly recoverable from RTT — an edge hit costs ``2 × 0.5`` ms, a
core hit 5 ms, a producer fetch 7 ms)::

            P   Pvoid            P      auto-generating producer
             \\ /                 Pvoid  dead prefix (flood sink)
              R0                  R0     core router
             /  \\
           R1    R2               edge routers (defense installed here)
          / |     |
        U1  A    U2               honest consumers U1/U2, attacker A

Defense is installed at the EDGE only: per-face attribution is
meaningful where attacker and honest traffic arrive on different faces.
At R0 the R1-facing face carries mixed traffic, and throttling it would
punish bystanders — the deployment guidance encoded by
:func:`~repro.defense.agent.install_network_defense`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.defense.agent import (
    DEFENSE_PRESETS,
    DefenseAgent,
    DefenseConfig,
    install_network_defense,
)
from repro.faults.adversarial import (
    AdaptivePollutionWindow,
    CachePollutionWindow,
    InterestFloodWindow,
)
from repro.faults.schedule import FaultSchedule
from repro.ndn.admission import InterestRateLimit
from repro.ndn.link import FixedDelay
from repro.ndn.network import Network
from repro.sim.batch.script import (
    ConsumerScript,
    FetchStep,
    SleepStep,
    TopologyObservables,
    collect_observables,
    diff_observables,
    spawn_scripts,
)
from repro.sim.rng import RngRegistry
from repro.validation.invariants import InvariantChecker

#: Leaf access delay (ms, one way) — an edge hit RTT is exactly 1.0 ms.
_LEAF_DELAY = 0.5
#: RTT at or under this is an edge-cache hit (core hits cost 5 ms).
EDGE_HIT_RTT = 1.5

#: The attacks a scenario can drive (``none`` = attack-free baseline;
#: ``adaptive`` is the Thompson-sampling pollution attacker that reacts
#: to the live defense).
SCENARIO_ATTACKS = ("none", "pollution", "flood", "adaptive")

#: Which alarm kind counts as *detecting* each attack.
_ALARM_KIND = {"pollution": "pollution", "adaptive": "pollution", "flood": "flood"}

#: Attacker request cadence (ms) of the fixed-rate pollution and flood.
ATTACK_INTERVAL = 2.0
#: Distinct names the pollution attackers draw from.
POLLUTION_CATALOG = 600
#: Honest working set (churns the 16-entry CS) and its Zipf exponent.
HOT_CATALOG = 24
ZIPF_EXPONENT = 0.9
#: Honest think time (ms) between one fetch's end and the next's start.
HONEST_INTERVAL = 8.0
#: Content Store and PIT capacity of every router.
CACHE_CAPACITY = 16
PIT_CAPACITY = 64


@dataclass(frozen=True)
class DefenseScenarioSpec:
    """One closed-loop run: a defense preset against one attack."""

    defense: str = "adaptive"  # one of DEFENSE_PRESETS
    attack: str = "pollution"  # one of SCENARIO_ATTACKS
    seed: int = 0
    horizon: float = 20000.0  # honest traffic stops here (ms)
    attack_start: float = 4000.0
    attack_end: float = 14000.0

    def __post_init__(self) -> None:
        if self.defense not in DEFENSE_PRESETS:
            raise ValueError(
                f"unknown defense {self.defense!r}; choose from {DEFENSE_PRESETS}"
            )
        if self.attack not in SCENARIO_ATTACKS:
            raise ValueError(
                f"unknown attack {self.attack!r}; choose from {SCENARIO_ATTACKS}"
            )
        if not 0 < self.attack_start < self.attack_end <= self.horizon:
            raise ValueError(
                "need 0 < attack_start < attack_end <= horizon, got "
                f"{self.attack_start}/{self.attack_end}/{self.horizon}"
            )


@dataclass(frozen=True)
class DefenseRunResult:
    """Observables of one closed-loop run."""

    defense: str
    attack: str
    seed: int
    honest_requests: int
    honest_delivered: int
    edge_hit_rate: float  # edge hits / honest requests (the utility)
    delivery_rate: float  # delivered / honest requests
    alarms: int
    first_alarm_time: Optional[float]
    detection_latency: Optional[float]  # first alarm − attack start (ms)
    attacker_requests_before_alarm: Optional[int]
    mitigations: int
    throttled: int  # defense_throttled across defended routers
    quarantined: int  # cache_quarantined across defended routers
    shed: int  # pit_shed across defended routers
    edge_pit_peak: int
    invariant_violations: int
    #: The honest consumers' run: the transparency check's evidence.
    observables: TopologyObservables
    alarm_lines: Tuple[str, ...] = ()
    mitigation_lines: Tuple[str, ...] = ()
    #: Adaptive attacker only: its own telemetry (None otherwise).
    attacker_attempts: Optional[int] = None
    attacker_delivered: Optional[int] = None
    attacker_favored_interval: Optional[float] = None


@dataclass(frozen=True)
class ClosedLoopReport:
    """Baseline vs. attacked run for one defense preset."""

    baseline: DefenseRunResult
    attacked: DefenseRunResult

    @property
    def utility_metric(self) -> str:
        """What the attack degrades: pollution destroys edge locality
        (``edge_hit_rate``); a flood starves the PIT and fails fetches
        outright (``delivery_rate``)."""
        return "delivery_rate" if self.attacked.attack == "flood" else "edge_hit_rate"

    @property
    def recovery_ratio(self) -> float:
        """Attacked utility over attack-free baseline (1.0 = fully
        restored; the acceptance bar is >= 0.9 under ``adaptive``)."""
        metric = self.utility_metric
        base = getattr(self.baseline, metric)
        if base == 0:
            return 0.0
        return getattr(self.attacked, metric) / base

    @property
    def attack_success(self) -> float:
        """Utility destroyed by the attack: ``1 − recovery_ratio``,
        clamped to [0, 1]."""
        return min(1.0, max(0.0, 1.0 - self.recovery_ratio))


def _build_tree(spec: DefenseScenarioSpec):
    """The two-level defense tree; returns (net, honest, edges)."""
    net = Network(rng=RngRegistry(spec.seed))
    # The "static" preset: 200 interests/s per face, no agent.
    rate_limit = InterestRateLimit(rate=200.0) if spec.defense == "static" else None
    for name in ("R1", "R2"):
        net.add_router(
            name,
            capacity=CACHE_CAPACITY,
            pit_capacity=PIT_CAPACITY,
            rate_limit=rate_limit,
        )
    net.add_router("R0", capacity=CACHE_CAPACITY, pit_capacity=PIT_CAPACITY)
    u1 = net.add_consumer("U1")
    u2 = net.add_consumer("U2")
    net.add_consumer("A")
    net.add_producer("P", "/content")
    net.add_producer("Pvoid", "/void", auto_generate=False)
    net.connect("U1", "R1", FixedDelay(_LEAF_DELAY))
    net.connect("A", "R1", FixedDelay(_LEAF_DELAY))
    net.connect("U2", "R2", FixedDelay(_LEAF_DELAY))
    net.connect("R1", "R0", FixedDelay(2.0))
    net.connect("R2", "R0", FixedDelay(2.0))
    net.connect("R0", "P", FixedDelay(1.0))
    net.connect("R0", "Pvoid", FixedDelay(1.0))
    for prefix in ("/content", "/void"):
        net.add_route("R1", prefix, "R0")
        net.add_route("R2", prefix, "R0")
    net.add_route("R0", "/content", "P")
    net.add_route("R0", "/void", "Pvoid")
    return net, (u1, u2), ("R1", "R2")


def _zipf_picks(rng, count: int) -> np.ndarray:
    """``count`` hot-catalog ranks, each what ``rng.choice(HOT_CATALOG,
    p=weights)`` would pick from the same single ``random()`` draw: the
    CDF is formed as ``choice`` forms it and searched right-sided."""
    weights = np.arange(1, HOT_CATALOG + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return np.searchsorted(cdf, rng.random(count), side="right")


def _honest_scripts(net: Network, honest, spec: DefenseScenarioSpec):
    """One script per honest consumer: Zipf fetches ``HONEST_INTERVAL``
    apart until the horizon.  At most ``ceil(horizon / HONEST_INTERVAL)``
    start; all are drawn up front from the consumer's own stream, which
    nothing else draws from, so the unused tail perturbs nothing."""
    hot = [
        FetchStep(f"/content/hot-{pick:03d}", timeout=2000.0, lifetime=2000.0)
        for pick in range(HOT_CATALOG)
    ]
    pause = SleepStep(HONEST_INTERVAL)
    rounds = ceil(spec.horizon / HONEST_INTERVAL)
    scripts = []
    for consumer in honest:
        picks = _zipf_picks(net.rng.stream(f"workload:{consumer.name}"), rounds)
        scripts.append(
            ConsumerScript(
                consumer=consumer.name,
                steps=[step for pick in picks.tolist() for step in (hot[pick], pause)],
                until=spec.horizon,
            )
        )
    return scripts


def _attack_schedule(spec: DefenseScenarioSpec):
    """The attack window for ``spec`` (None for the baseline) and its
    schedule, so the caller can read adaptive-attacker telemetry back."""
    if spec.attack == "none":
        return None, None
    common = dict(
        attacker="A", start=spec.attack_start, end=spec.attack_end, seed=spec.seed + 77
    )
    if spec.attack == "pollution":
        window = CachePollutionWindow(
            prefix="/content",
            interval=ATTACK_INTERVAL,
            catalog=POLLUTION_CATALOG,
            **common,
        )
    elif spec.attack == "adaptive":
        window = AdaptivePollutionWindow(
            prefix="/content", catalog=POLLUTION_CATALOG, **common
        )
    else:  # flood: dead prefix, nothing ever answers
        window = InterestFloodWindow(
            prefix="/void", interval=ATTACK_INTERVAL, lifetime=1500.0, **common
        )
    return FaultSchedule([window]), window


def run_defense_scenario(spec: DefenseScenarioSpec) -> DefenseRunResult:
    """One seeded closed-loop run; see :class:`DefenseScenarioSpec`."""
    net, honest, edge_names = _build_tree(spec)
    config = DefenseConfig.preset(spec.defense)
    agents: Dict[str, DefenseAgent] = {}
    if config is not None:
        agents = install_network_defense(net, config, routers=edge_names)
    schedule, window = _attack_schedule(spec)
    if schedule is not None:
        schedule.apply(net)
    scripts = _honest_scripts(net, honest, spec)
    delivered = spawn_scripts(net, scripts)
    checker = InvariantChecker()
    checker.install(net, interval=500.0, horizon=spec.horizon)
    end = net.run()
    checker.check_network(net)
    observed = collect_observables(net, scripts, delivered, end, kernel="reference")

    # No retries: every fetch started sent exactly one interest.
    requests = sum(c.monitor.counter("interests_sent") for c in honest)
    edge_hits = sum(
        rtt <= EDGE_HIT_RTT for rtts in observed.rtts.values() for rtt in rtts
    )
    alarms = [a for agent in agents.values() for a in agent.log.alarms]
    alarms.sort(key=lambda a: a.time)
    mitigations = [m for agent in agents.values() for m in agent.mitigations]
    mitigations.sort(key=lambda m: m.time)
    first_alarm = alarms[0].time if alarms else None
    latency = None
    before_alarm = None
    # The adaptive attacker's own telemetry (None for the other attacks).
    bandit = window.log if isinstance(window, AdaptivePollutionWindow) else None
    if spec.attack != "none":
        # Detection latency counts only alarms of the attack's own kind
        # raised once the window is open — an unrelated (or spurious)
        # earlier alarm must not masquerade as detection.
        detected = [
            a
            for a in alarms
            if a.kind == _ALARM_KIND[spec.attack]
            and a.time >= spec.attack_start
        ]
        if detected:
            latency = detected[0].time - spec.attack_start
            if bandit is not None:
                # The bandit's cadence is not fixed: count its actual
                # attempts issued before the first qualifying alarm.
                before_alarm = bandit.requests_before(detected[0].time)
            else:
                before_alarm = int(latency / ATTACK_INTERVAL)
    edges = [observed.router_stats[name] for name in edge_names]
    return DefenseRunResult(
        defense=spec.defense,
        attack=spec.attack,
        seed=spec.seed,
        honest_requests=requests,
        honest_delivered=observed.total_delivered,
        edge_hit_rate=edge_hits / requests if requests else 0.0,
        delivery_rate=observed.total_delivered / requests if requests else 0.0,
        alarms=sum(agent.log.total for agent in agents.values()),
        first_alarm_time=first_alarm,
        detection_latency=latency,
        attacker_requests_before_alarm=before_alarm,
        mitigations=len(mitigations),
        throttled=int(sum(e["defense_throttled"] for e in edges)),
        quarantined=int(sum(e["cache_quarantined"] for e in edges)),
        shed=int(sum(e["pit_shed"] for e in edges)),
        edge_pit_peak=int(max(e["pit_peak_size"] for e in edges)),
        invariant_violations=len(checker.violations),
        observables=observed,
        alarm_lines=tuple(str(a) for a in alarms[:16]),
        mitigation_lines=tuple(str(m) for m in mitigations[:16]),
        attacker_attempts=None if bandit is None else bandit.attempts,
        attacker_delivered=None if bandit is None else bandit.delivered,
        attacker_favored_interval=(
            window.arms[bandit.favored_arm()]
            if bandit is not None and bandit.favored_arm() >= 0
            else None
        ),
    )


def defense_transparency_mismatches(
    seed: int = 0, attacks: Tuple[str, ...] = ("none", "pollution")
) -> List[str]:
    """Bit-identity of the data path with the defense observing.

    The monitor preset runs every detector but never mitigates, so for
    any attack the ``off`` and ``monitor`` runs must produce *identical*
    observables (every honest RTT, link packet count, router counter and
    summary, and the events fired), honest request counts and invariant
    violations: installing detection cannot perturb what it watches.
    Returns the differences, empty when the guarantee holds.
    """
    mismatches: List[str] = []
    for attack in attacks:
        off = run_defense_scenario(
            DefenseScenarioSpec(defense="off", attack=attack, seed=seed)
        )
        monitor = run_defense_scenario(
            DefenseScenarioSpec(defense="monitor", attack=attack, seed=seed)
        )
        for name in ("honest_requests", "invariant_violations"):
            a, b = getattr(off, name), getattr(monitor, name)
            if a != b:
                mismatches.append(f"{attack}: {name}: off={a!r} monitor={b!r}")
        mismatches += [
            f"{attack}: {line}"
            for line in diff_observables(
                off.observables, monitor.observables, ("off", "monitor")
            )
        ]
    return mismatches


def run_closed_loop(
    defense: str = "adaptive",
    attack: str = "pollution",
    seed: int = 0,
    **overrides,
) -> ClosedLoopReport:
    """Baseline (attack-free) + attacked run for one defense preset.

    Both runs share every spec field except ``attack``, so the baseline
    is the counterfactual the recovery ratio is measured against.
    """
    spec = DefenseScenarioSpec(
        defense=defense, attack=attack, seed=seed, **overrides
    )
    return closed_loop_report(spec, {})


def closed_loop_report(
    attacked_spec: DefenseScenarioSpec,
    baselines: Dict[DefenseScenarioSpec, DefenseRunResult],
) -> ClosedLoopReport:
    """:func:`run_closed_loop` for a ready spec, sharing baselines.

    The attack-free baseline is a pure function of the spec with
    ``attack="none"``; it is looked up in (and added to) ``baselines``,
    so a sweep passing one dict runs each distinct baseline once.
    """
    baseline_spec = replace(attacked_spec, attack="none")
    if baseline_spec not in baselines:
        baselines[baseline_spec] = run_defense_scenario(baseline_spec)
    return ClosedLoopReport(
        baseline=baselines[baseline_spec],
        attacked=run_defense_scenario(attacked_spec),
    )
