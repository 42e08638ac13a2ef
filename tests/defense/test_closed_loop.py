"""Closed-loop acceptance and determinism tests (ROADMAP item 5).

The acceptance demo: under a seeded pollution attack the adaptive
defense alarms within a bounded attacker-request budget and restores the
honest edge hit rate to within 10% of the attack-free baseline.  The
determinism suite pins the defense loop's decisions bit-identical across
repeated runs — including under link chaos — and the transparency guard
proves installing a passive defense cannot perturb the data path.
"""

from __future__ import annotations

import pytest

from repro.defense import (
    DefenseConfig,
    DefenseScenarioSpec,
    defense_transparency_mismatches,
    install_defense,
    run_closed_loop,
    run_defense_scenario,
)
from repro.faults import (
    BurstLossWindow,
    CachePollutionWindow,
    DelaySpikeWindow,
    FaultSchedule,
)
from repro.ndn.link import FixedDelay
from repro.ndn.network import Network
from repro.sim.process import Timeout
from repro.sim.rng import RngRegistry

#: The detection budget the pollution detector is configured for:
#: ``min_samples`` attacker requests lift the cold-start floor, and the
#: EWMA crosses threshold within a few dozen more.  150 gives headroom
#: without letting detection degrade silently.
DETECTION_BUDGET_REQUESTS = 150


class TestAcceptance:
    """The ISSUE's closed-loop demo, asserted end to end."""

    def test_adaptive_defense_restores_hit_rate_under_pollution(self):
        report = run_closed_loop(defense="adaptive", attack="pollution", seed=0)
        attacked = report.attacked
        # Detection: a pollution alarm inside the attack window, within
        # the bounded attacker-request budget.
        assert attacked.alarms >= 1
        assert attacked.detection_latency is not None
        assert (
            attacked.attacker_requests_before_alarm <= DETECTION_BUDGET_REQUESTS
        )
        # Mitigation engaged and acted.
        assert attacked.mitigations >= 1
        assert attacked.throttled > 0
        assert attacked.quarantined > 0
        # Utility restored: within 10% of the attack-free baseline.
        assert report.utility_metric == "edge_hit_rate"
        assert report.recovery_ratio >= 0.9
        # The loop never broke a conservation law.
        assert attacked.invariant_violations == 0
        assert report.baseline.invariant_violations == 0
        # And the baseline run never false-alarmed or mitigated.
        assert report.baseline.alarms == 0
        assert report.baseline.mitigations == 0

    def test_undefended_pollution_does_real_damage(self):
        off = run_closed_loop(defense="off", attack="pollution", seed=0)
        adaptive = run_closed_loop(defense="adaptive", attack="pollution", seed=0)
        assert off.attack_success > adaptive.attack_success
        # The damage the defense erases is substantial, not noise.
        assert off.attack_success >= 0.05

    def test_flood_detected_and_shed(self):
        report = run_closed_loop(defense="adaptive", attack="flood", seed=0)
        attacked = report.attacked
        assert report.utility_metric == "delivery_rate"
        assert attacked.detection_latency is not None
        assert attacked.shed > 0
        assert attacked.invariant_violations == 0
        assert report.recovery_ratio >= 0.9

    def test_adaptive_attacker_beats_static_defense_not_adaptive(self):
        report = run_closed_loop(defense="adaptive", attack="adaptive", seed=0)
        attacked = report.attacked
        # The Thompson-sampling attacker reports its own telemetry...
        assert attacked.attacker_attempts is not None
        assert attacked.attacker_delivered is not None
        assert attacked.attacker_attempts >= attacked.attacker_delivered
        # ...and the closed loop still holds the recovery bar.
        assert report.recovery_ratio >= 0.9
        assert attacked.detection_latency is not None
        assert attacked.invariant_violations == 0


#: ``(alarms, mitigations)`` of the attack-free adaptive run, by seed.
#: Seed 1 is a real false positive: honest user U1's Zipf re-request
#: streak matches the probe detector's signature, so its face is
#: throttled and later released.  "Zero false alarms" holds per seed,
#: not for the detector (ROADMAP 6a).
BENIGN_ALARMS = {0: (0, 0), 1: (1, 2), 2: (0, 0), 3: (0, 0), 4: (0, 0)}


class TestBenignSeedFamily:
    @pytest.mark.parametrize("seed", sorted(BENIGN_ALARMS))
    def test_false_alarms_by_seed(self, seed):
        run = run_defense_scenario(
            DefenseScenarioSpec(defense="adaptive", attack="none", seed=seed)
        )
        assert (run.alarms, run.mitigations) == BENIGN_ALARMS[seed]
        if seed == 1:
            (alarm,) = run.alarm_lines
            assert "probe@R1 face=R1->U1" in alarm
            assert run.delivery_rate > 0.999


class TestDeterminism:
    """Defense decisions are a pure function of (spec, seed)."""

    @pytest.mark.parametrize("attack", ["pollution", "flood", "adaptive"])
    def test_repeated_runs_bit_identical(self, attack):
        spec = DefenseScenarioSpec(
            defense="adaptive",
            attack=attack,
            seed=3,
            horizon=8000.0,
            attack_start=1500.0,
            attack_end=6000.0,
        )
        first = run_defense_scenario(spec)
        second = run_defense_scenario(spec)
        assert first == second  # every field, alarm line, and counter

    def test_seed_changes_the_run(self):
        kwargs = dict(
            defense="adaptive",
            attack="pollution",
            horizon=8000.0,
            attack_start=1500.0,
            attack_end=6000.0,
        )
        a = run_defense_scenario(DefenseScenarioSpec(seed=0, **kwargs))
        b = run_defense_scenario(DefenseScenarioSpec(seed=1, **kwargs))
        assert a.observables.router_stats != b.observables.router_stats


def _chaos_run(seed: int):
    """A defended edge under pollution *and* link chaos, end to end."""
    net = Network(rng=RngRegistry(seed))
    net.add_router("E", capacity=8, pit_capacity=32)
    net.add_consumer("U")
    net.add_consumer("A")
    net.add_producer("P", "/content")
    net.connect("U", "E", FixedDelay(0.5))
    net.connect("A", "E", FixedDelay(0.5))
    net.connect("E", "P", FixedDelay(2.0))
    net.add_route("E", "/content", "P")
    agent = install_defense(net.routers["E"], DefenseConfig.preset("adaptive"))
    FaultSchedule(
        [
            CachePollutionWindow(
                attacker="A",
                prefix="/content",
                start=500.0,
                end=4000.0,
                interval=2.0,
                catalog=400,
                seed=seed + 1,
            ),
            DelaySpikeWindow(
                link="E<->P", start=1000.0, end=2000.0, extra_delay=5.0
            ),
            BurstLossWindow(link="A<->E", start=1500.0, end=3000.0),
        ]
    ).apply(net)
    outcomes = []

    def honest(consumer, rng):
        while consumer.engine.now < 5000.0:
            pick = int(rng.integers(0, 16))
            result = yield from consumer.fetch(
                f"/content/hot-{pick:02d}", lifetime=800.0
            )
            outcomes.append(result is not None)
            yield Timeout(4.0)

    net.engine.spawn(honest(net["U"], net.rng.stream("honest")), label="honest")
    net.engine.run()
    return (
        tuple(str(a) for a in agent.log.alarms),
        tuple(str(m) for m in agent.mitigations),
        dict(net.routers["E"].stats_summary()),
        tuple(outcomes),
    )


class TestChaosDeterminism:
    def test_defense_decisions_identical_under_fault_schedule_chaos(self):
        first = _chaos_run(seed=11)
        second = _chaos_run(seed=11)
        assert first == second
        alarms, mitigations, _, _ = first
        # The chaos run actually exercised the loop (alarm + mitigation).
        assert alarms
        assert mitigations


class TestTransparency:
    """Installing a passive defense cannot perturb what it watches."""

    def test_off_and_monitor_runs_bit_identical(self):
        assert defense_transparency_mismatches(seed=0) == []
