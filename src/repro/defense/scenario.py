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

from bisect import bisect_right
from dataclasses import dataclass, field, replace
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
from repro.sim.process import Timeout
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


@dataclass
class _HonestTally:
    requests: int = 0
    delivered: int = 0
    edge_hits: int = 0


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
    alarm_lines: Tuple[str, ...] = ()
    mitigation_lines: Tuple[str, ...] = ()
    #: Adaptive attacker only: its own telemetry (None otherwise).
    attacker_attempts: Optional[int] = None
    attacker_delivered: Optional[int] = None
    attacker_favored_interval: Optional[float] = None
    #: Full per-router counter snapshot (``Forwarder.stats_summary``),
    #: the evidence base for the defense-off/monitor transparency check.
    router_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)


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
    """The two-level defense tree; returns (net, honest, attacker, edges)."""
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
    return net, (u1, u2), net["A"], ("R1", "R2")


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** -exponent
    return weights / weights.sum()


def _zipf_cdf(n: int, exponent: float) -> List[float]:
    """The Zipf weights' CDF exactly as ``Generator.choice(n, p=weights)``
    forms it, so ``bisect_right(cdf, rng.random())`` is that call's pick,
    from the same single ``random()`` draw (a right-sided CDF search)."""
    cdf = _zipf_weights(n, exponent).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _honest_proc(consumer, spec: DefenseScenarioSpec, rng, tally: _HonestTally):
    cdf = _zipf_cdf(HOT_CATALOG, ZIPF_EXPONENT)
    engine = consumer.engine
    while engine.now < spec.horizon:
        pick = bisect_right(cdf, rng.random())
        tally.requests += 1
        result = yield from consumer.fetch(
            f"/content/hot-{pick:03d}", lifetime=2000.0
        )
        if result is not None:
            tally.delivered += 1
            if result.rtt <= EDGE_HIT_RTT:
                tally.edge_hits += 1
        yield Timeout(8.0)  # honest request cadence per consumer (ms)


def _attack_schedule(spec: DefenseScenarioSpec):
    """The attack window for ``spec`` (None for the baseline) and its
    schedule, so the caller can read adaptive-attacker telemetry back."""
    if spec.attack == "none":
        return None, None
    if spec.attack == "pollution":
        window = CachePollutionWindow(
            attacker="A",
            prefix="/content",
            start=spec.attack_start,
            end=spec.attack_end,
            interval=ATTACK_INTERVAL,
            catalog=POLLUTION_CATALOG,
            seed=spec.seed + 77,
        )
    elif spec.attack == "adaptive":
        window = AdaptivePollutionWindow(
            attacker="A",
            prefix="/content",
            start=spec.attack_start,
            end=spec.attack_end,
            catalog=POLLUTION_CATALOG,
            seed=spec.seed + 77,
        )
    else:  # flood: dead prefix, nothing ever answers
        window = InterestFloodWindow(
            attacker="A",
            prefix="/void",
            start=spec.attack_start,
            end=spec.attack_end,
            interval=ATTACK_INTERVAL,
            lifetime=1500.0,
            seed=spec.seed + 77,
        )
    return FaultSchedule([window]), window


def run_defense_scenario(spec: DefenseScenarioSpec) -> DefenseRunResult:
    """One seeded closed-loop run; see :class:`DefenseScenarioSpec`."""
    net, honest, _, edge_names = _build_tree(spec)
    config = DefenseConfig.preset(spec.defense)
    agents: Dict[str, DefenseAgent] = {}
    if config is not None:
        agents = install_network_defense(net, config, routers=edge_names)
    schedule, window = _attack_schedule(spec)
    if schedule is not None:
        schedule.apply(net)
    tallies: List[_HonestTally] = []
    for consumer in honest:
        tally = _HonestTally()
        tallies.append(tally)
        rng = net.rng.stream(f"workload:{consumer.name}")
        net.engine.spawn(
            _honest_proc(consumer, spec, rng, tally),
            label=f"honest:{consumer.name}",
        )
    checker = InvariantChecker()
    checker.install(net, interval=500.0, horizon=spec.horizon)
    net.engine.run()
    checker.check_network(net)

    requests = sum(t.requests for t in tallies)
    delivered = sum(t.delivered for t in tallies)
    edge_hits = sum(t.edge_hits for t in tallies)
    alarms = [a for agent in agents.values() for a in agent.log.alarms]
    alarms.sort(key=lambda a: a.time)
    mitigations = [
        m for agent in agents.values() for m in agent.mitigations
    ]
    mitigations.sort(key=lambda m: m.time)
    first_alarm = alarms[0].time if alarms else None
    latency = None
    before_alarm = None
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
            if isinstance(window, AdaptivePollutionWindow):
                # The bandit's cadence is not fixed: count its actual
                # attempts issued before the first qualifying alarm.
                before_alarm = window.log.requests_before(detected[0].time)
            else:
                before_alarm = int(latency / ATTACK_INTERVAL)
    throttled = quarantined = shed = 0
    for name in edge_names:
        monitor = net.routers[name].monitor
        throttled += monitor.counter("defense_throttled")
        quarantined += monitor.counter("cache_quarantined")
        shed += monitor.counter("pit_shed")
    return DefenseRunResult(
        defense=spec.defense,
        attack=spec.attack,
        seed=spec.seed,
        honest_requests=requests,
        honest_delivered=delivered,
        edge_hit_rate=edge_hits / requests if requests else 0.0,
        delivery_rate=delivered / requests if requests else 0.0,
        alarms=sum(agent.log.total for agent in agents.values()),
        first_alarm_time=first_alarm,
        detection_latency=latency,
        attacker_requests_before_alarm=before_alarm,
        mitigations=len(mitigations),
        throttled=throttled,
        quarantined=quarantined,
        shed=shed,
        edge_pit_peak=max(net.routers[n].pit.peak_size for n in edge_names),
        invariant_violations=len(checker.violations),
        alarm_lines=tuple(str(a) for a in alarms[:16]),
        mitigation_lines=tuple(str(m) for m in mitigations[:16]),
        attacker_attempts=(
            window.log.attempts
            if isinstance(window, AdaptivePollutionWindow)
            else None
        ),
        attacker_delivered=(
            window.log.delivered
            if isinstance(window, AdaptivePollutionWindow)
            else None
        ),
        attacker_favored_interval=(
            window.arms[window.log.favored_arm()]
            if isinstance(window, AdaptivePollutionWindow)
            and window.log.favored_arm() >= 0
            else None
        ),
        router_stats={
            name: dict(router.stats_summary())
            for name, router in sorted(net.routers.items())
        },
    )


#: Data-path observables that must not move when a passive defense
#: (monitor preset) is installed — everything except detector state.
_DATA_PATH_FIELDS = (
    "honest_requests",
    "honest_delivered",
    "edge_hit_rate",
    "delivery_rate",
    "throttled",
    "quarantined",
    "shed",
    "edge_pit_peak",
    "invariant_violations",
)


def defense_transparency_mismatches(
    seed: int = 0, attacks: Tuple[str, ...] = ("none", "pollution")
) -> List[str]:
    """Bit-identity of the data path with the defense observing.

    The monitor preset runs every detector but never mitigates, so for
    any attack the ``off`` and ``monitor`` runs must produce *identical*
    honest-traffic observables and per-router counters — the guarantee
    that installing detection cannot perturb the system it watches (and
    that the seed data path is preserved exactly when the defense is
    disabled).  Returns the list of differences, empty when the
    guarantee holds.
    """
    mismatches: List[str] = []
    for attack in attacks:
        off = run_defense_scenario(
            DefenseScenarioSpec(defense="off", attack=attack, seed=seed)
        )
        monitor = run_defense_scenario(
            DefenseScenarioSpec(defense="monitor", attack=attack, seed=seed)
        )
        for name in _DATA_PATH_FIELDS:
            a = getattr(off, name)
            b = getattr(monitor, name)
            if a != b:
                mismatches.append(f"{attack}: {name}: off={a!r} monitor={b!r}")
        for router in sorted(off.router_stats):
            ours = off.router_stats[router]
            theirs = monitor.router_stats.get(router, {})
            for key in sorted(set(ours) | set(theirs)):
                if ours.get(key) != theirs.get(key):
                    mismatches.append(
                        f"{attack}: {router}.{key}: off={ours.get(key)!r} "
                        f"monitor={theirs.get(key)!r}"
                    )
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
