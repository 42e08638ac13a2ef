"""Detection frontier: attack success vs. detection latency vs. utility.

ROADMAP item 5's quantitative deliverable.  For every (defense preset,
attack) cell the sweep compares two closed-loop scenario runs — an
attack-free baseline (run once per preset and shared across attacks)
and an attacked run sharing every other spec field
(:func:`repro.defense.scenario.run_closed_loop`) — and reads off the
three axes the defense loop trades between:

* ``attack_success`` — honest utility destroyed by the attack,
  ``1 − attacked/baseline`` on the attack's own utility metric
  (edge hit rate for pollution, delivery rate for a flood),
* ``detection_latency`` — first qualifying alarm minus attack start
  (ms), plus the attacker requests spent before that alarm,
* ``utility`` — the honest consumers' absolute utility under attack,
  with ``false_alarms``/``mitigations`` from the *baseline* run showing
  what the defense costs when nothing is wrong (zero for a healthy
  detector).

The presets span the frontier's corners: ``off`` (maximum damage, no
detection), ``static`` (rate limiting without detection), ``monitor``
(detection without mitigation — pure latency measurement), ``adaptive``
(the closed loop).  ``repro-experiments defend`` runs the sweep from a
shell and writes the frontier to ``--out`` (default
``defense_frontier.json``).  How fast the sweep runs is the perf
ledger's ``frontier_sweep`` workload.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.defense.agent import DEFENSE_PRESETS
from repro.defense.scenario import (
    ClosedLoopReport,
    DefenseRunResult,
    DefenseScenarioSpec,
    closed_loop_report,
)

#: Attacks the frontier sweeps by default (the closed-loop demo's seeded
#: pollution and flood, plus the Thompson-sampling adaptive attacker).
SWEEP_ATTACKS = ("pollution", "flood", "adaptive")


@dataclass(frozen=True)
class DefensePoint:
    """One (defense, attack) cell of the detection frontier."""

    defense: str
    attack: str
    seed: int
    attack_success: float
    utility_metric: str
    baseline_utility: float
    attacked_utility: float
    recovery_ratio: float
    detection_latency: Optional[float]
    attacker_requests_before_alarm: Optional[int]
    alarms: int
    false_alarms: int  # alarms raised in the attack-free baseline run
    mitigations: int
    false_mitigations: int  # mitigations in the attack-free baseline run
    throttled: int
    quarantined: int
    shed: int
    invariant_violations: int
    attacker_attempts: Optional[int] = None
    attacker_delivered: Optional[int] = None

    @classmethod
    def from_report(cls, report: ClosedLoopReport) -> "DefensePoint":
        attacked = report.attacked
        baseline = report.baseline
        metric = report.utility_metric
        return cls(
            defense=attacked.defense,
            attack=attacked.attack,
            seed=attacked.seed,
            attack_success=report.attack_success,
            utility_metric=metric,
            baseline_utility=getattr(baseline, metric),
            attacked_utility=getattr(attacked, metric),
            recovery_ratio=report.recovery_ratio,
            detection_latency=attacked.detection_latency,
            attacker_requests_before_alarm=(
                attacked.attacker_requests_before_alarm
            ),
            alarms=attacked.alarms,
            false_alarms=baseline.alarms,
            mitigations=attacked.mitigations,
            false_mitigations=baseline.mitigations,
            throttled=attacked.throttled,
            quarantined=attacked.quarantined,
            shed=attacked.shed,
            invariant_violations=(
                attacked.invariant_violations + baseline.invariant_violations
            ),
            attacker_attempts=attacked.attacker_attempts,
            attacker_delivered=attacked.attacker_delivered,
        )


@dataclass
class DefenseFrontier:
    """The full sweep result plus the configuration that produced it."""

    points: List[DefensePoint] = field(default_factory=list)
    seed: int = 0

    def best_defense(self, attack: str) -> DefensePoint:
        """The preset that minimizes ``attack_success`` for ``attack``
        (detection latency breaks ties toward faster alarms)."""
        candidates = [p for p in self.points if p.attack == attack]
        if not candidates:
            raise ValueError(f"no frontier points for attack {attack!r}")
        return min(
            candidates,
            key=lambda p: (
                p.attack_success,
                p.detection_latency if p.detection_latency is not None
                else float("inf"),
            ),
        )

    def to_dict(self) -> dict:
        """JSON-serializable frontier (the artifact format)."""
        return {
            "experiment": "defense_detection_frontier",
            "seed": self.seed,
            "points": [asdict(p) for p in self.points],
        }

    def render(self) -> str:
        """Fixed-width table, one row per sweep point."""
        header = (
            f"{'defense':<9} {'attack':<10} {'success':>7} {'utility':>7} "
            f"{'recovery':>8} {'latency':>9} {'req@alarm':>9} "
            f"{'alarms':>6} {'fp':>3} {'mitig':>5} {'viol':>4}"
        )
        lines = [header, "-" * len(header)]
        for p in self.points:
            latency = (
                f"{p.detection_latency:>8.1f}m"
                if p.detection_latency is not None
                else f"{'-':>9}"
            )
            before = (
                f"{p.attacker_requests_before_alarm:>9d}"
                if p.attacker_requests_before_alarm is not None
                else f"{'-':>9}"
            )
            lines.append(
                f"{p.defense:<9} {p.attack:<10} {p.attack_success:>7.3f} "
                f"{p.attacked_utility:>7.3f} {p.recovery_ratio:>8.3f} "
                f"{latency} {before} {p.alarms:>6d} {p.false_alarms:>3d} "
                f"{p.mitigations:>5d} {p.invariant_violations:>4d}"
            )
        return "\n".join(lines)


def run_defense_sweep(
    defenses: Sequence[str] = DEFENSE_PRESETS,
    attacks: Sequence[str] = SWEEP_ATTACKS,
    seed: int = 0,
    **spec_overrides,
) -> DefenseFrontier:
    """The full defense × attack frontier sweep."""
    unknown = [d for d in defenses if d not in DEFENSE_PRESETS]
    if unknown:
        raise ValueError(
            f"unknown defenses {unknown!r}; choose from {DEFENSE_PRESETS}"
        )
    frontier = DefenseFrontier(seed=seed)
    # The attack-free baseline depends on (defense, seed, overrides) but
    # not on the attack, so each preset's is run once and shared by every
    # attack of this sweep (scenario runs are pure functions of the spec).
    baselines: Dict[DefenseScenarioSpec, DefenseRunResult] = {}

    for attack in attacks:
        for defense in defenses:
            spec = DefenseScenarioSpec(
                defense=defense, attack=attack, seed=seed, **spec_overrides
            )
            frontier.points.append(
                DefensePoint.from_report(closed_loop_report(spec, baselines))
            )
    return frontier
