"""Adversarial load generators: flooding, pollution, composition."""

from __future__ import annotations

from math import inf, nan

import pytest

from repro.faults import (
    AdaptiveAttackLog,
    AdaptivePollutionWindow,
    CachePollutionWindow,
    FaultConfigError,
    FaultSchedule,
    InterestFloodWindow,
)
from repro.ndn.link import FixedDelay
from repro.ndn.network import Network
from repro.sim.rng import RngRegistry


def star(seed=0, pit_capacity=None, cs_capacity=8):
    """attacker a and consumer c behind R; /data answers, /flood dangles."""
    net = Network(rng=RngRegistry(seed))
    net.add_router("R", capacity=cs_capacity, pit_capacity=pit_capacity)
    net.add_consumer("c")
    net.add_consumer("a")
    net.add_producer("p", "/data", auto_generate=True)
    net.add_producer("f", "/flood", auto_generate=False)
    net.connect("c", "R", FixedDelay(1.0))
    net.connect("a", "R", FixedDelay(1.0))
    net.connect("R", "p", FixedDelay(3.0))
    net.connect("R", "f", FixedDelay(3.0))
    net.add_route("R", "/data", "p")
    net.add_route("R", "/flood", "f")
    return net


class TestValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            lambda: InterestFloodWindow("a", "/flood", start=20, end=10),
            lambda: InterestFloodWindow("a", "/flood", 0, 10, interval=0.0),
            lambda: InterestFloodWindow("a", "/flood", 0, 10, lifetime=0.0),
            lambda: InterestFloodWindow("a", "/flood", 0, 10, jitter=-1.0),
            lambda: CachePollutionWindow("a", "/data", start=-1, end=10),
            lambda: CachePollutionWindow("a", "/data", 0, 10, interval=0.0),
            lambda: CachePollutionWindow("a", "/data", 0, 10, catalog=0),
            lambda: CachePollutionWindow("a", "/data", 0, 10, lifetime=0.0),
            # Non-finite values fail closed (every check is a negation).
            lambda: InterestFloodWindow("a", "/flood", 0, 10, interval=nan),
            lambda: InterestFloodWindow("a", "/flood", 0, 10, interval=inf),
            lambda: InterestFloodWindow("a", "/flood", 0, 10, lifetime=nan),
            lambda: InterestFloodWindow("a", "/flood", 0, 10, jitter=nan),
            lambda: CachePollutionWindow("a", "/data", 0, 10, interval=nan),
            lambda: CachePollutionWindow("a", "/data", 0, 10, interval=inf),
            lambda: CachePollutionWindow("a", "/data", 0, 10, lifetime=nan),
        ],
    )
    def test_bad_parameters_rejected_at_construction(self, bad):
        with pytest.raises(FaultConfigError):
            bad()

    def test_unknown_attacker_rejected_at_apply(self):
        net = star()
        schedule = FaultSchedule(
            [InterestFloodWindow("ghost", "/flood", 10.0, 20.0)]
        )
        with pytest.raises(FaultConfigError, match="unknown entity"):
            schedule.apply(net)

    def test_router_attacker_rejected(self):
        net = star()
        schedule = FaultSchedule([InterestFloodWindow("R", "/flood", 10.0, 20.0)])
        with pytest.raises(FaultConfigError, match="no attached face"):
            schedule.apply(net)

    def test_window_in_the_past_rejected(self):
        net = star()
        net.engine.schedule(100.0, lambda: None)
        net.run(until=50.0)
        schedule = FaultSchedule([InterestFloodWindow("a", "/flood", 10.0, 20.0)])
        with pytest.raises(FaultConfigError, match="past"):
            schedule.apply(net)


class TestInterestFlood:
    def test_count_matches_window_and_interval(self):
        window = InterestFloodWindow("a", "/flood", 100.0, 300.0, interval=2.0)
        assert window.count == 100

    def test_flood_fills_unbounded_pit_with_distinct_names(self):
        net = star()
        window = InterestFloodWindow(
            "a", "/flood", start=10.0, end=50.0, interval=2.0, lifetime=5000.0
        )
        assert FaultSchedule([window]).apply(net) == window.count
        net.run(until=60.0)
        router = net["R"]
        # Nothing answers /flood, so every distinct name dangles.
        assert len(router.pit) == window.count
        assert router.monitor.counter("interest_in") == window.count

    def test_flood_entries_expire_after_lifetime(self):
        net = star()
        window = InterestFloodWindow(
            "a", "/flood", start=10.0, end=30.0, interval=5.0, lifetime=100.0
        )
        FaultSchedule([window]).apply(net)
        net.run()
        router = net["R"]
        assert len(router.pit) == 0
        assert router.monitor.counter("pit_expired") == window.count

    def test_same_seed_same_attack(self):
        def pending_names(seed):
            net = star()
            FaultSchedule(
                [
                    InterestFloodWindow(
                        "a", "/flood", 10.0, 40.0, interval=3.0,
                        lifetime=5000.0, jitter=2.0, seed=seed,
                    )
                ]
            ).apply(net)
            net.run(until=50.0)
            return net["R"].pit.names

        assert pending_names(5) == pending_names(5)
        assert pending_names(5) != pending_names(6)


class TestCachePollution:
    def test_pollution_requests_are_answered_and_churn_the_cs(self):
        net = star(cs_capacity=4)
        window = CachePollutionWindow(
            "a", "/data", start=10.0, end=210.0, interval=5.0, catalog=100,
        )
        FaultSchedule([window]).apply(net)
        net.run()
        router = net["R"]
        # A wide catalog over a tiny CS forces real evictions...
        assert router.cs.evictions > 0
        assert len(router.cs) <= 4
        # ...and, unlike the flood, leaves no dangling PIT state behind.
        assert len(router.pit) == 0

    def test_same_seed_same_request_sequence(self):
        def insertions(seed):
            net = star(cs_capacity=4)
            FaultSchedule(
                [
                    CachePollutionWindow(
                        "a", "/data", 10.0, 110.0, interval=5.0,
                        catalog=50, seed=seed,
                    )
                ]
            ).apply(net)
            net.run()
            return net["R"].cs.insertions

        assert insertions(3) == insertions(3)


class TestComposition:
    def test_one_window_schedules(self):
        window = {"start": 10.0, "end": 20.0, "interval": 5.0}
        schedule = FaultSchedule([InterestFloodWindow("a", "/flood", **window)])
        schedule.add(CachePollutionWindow("a", "/data", **window))
        net = star()
        assert schedule.apply(net) == 2 + 2
        net.run()


class TestAdaptivePollution:
    """The Thompson-sampling attacker (the defense loop's sparring partner)."""

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: AdaptivePollutionWindow("a", "/data", start=20, end=10),
            lambda: AdaptivePollutionWindow("a", "/data", 0, 10, arms=()),
            lambda: AdaptivePollutionWindow("a", "/data", 0, 10, arms=(1.0, 0.0)),
            lambda: AdaptivePollutionWindow("a", "/data", 0, 10, catalog=0),
            lambda: AdaptivePollutionWindow("a", "/data", 0, 10, lifetime=0.0),
            lambda: AdaptivePollutionWindow("a", "/data", 0, 10, timeout=0.0),
            lambda: AdaptivePollutionWindow("a", "/data", 0, 10, arms=(nan,)),
            lambda: AdaptivePollutionWindow("a", "/data", 0, 10, arms=(inf,)),
            lambda: AdaptivePollutionWindow("a", "/data", 0, 10, lifetime=nan),
            lambda: AdaptivePollutionWindow("a", "/data", 0, 10, timeout=nan),
        ],
    )
    def test_bad_parameters_rejected_at_construction(self, bad):
        with pytest.raises(FaultConfigError):
            bad()

    def test_unknown_attacker_rejected_at_apply(self):
        net = star()
        schedule = FaultSchedule(
            [AdaptivePollutionWindow("ghost", "/data", 10.0, 20.0)]
        )
        with pytest.raises(FaultConfigError, match="unknown entity"):
            schedule.apply(net)

    def test_router_attacker_rejected_at_apply(self):
        net = star()
        schedule = FaultSchedule(
            [AdaptivePollutionWindow("R", "/data", 10.0, 20.0)]
        )
        with pytest.raises(FaultConfigError, match="must be\\s+a consumer"):
            schedule.apply(net)

    def test_attack_runs_and_records_telemetry(self):
        net = star()
        window = AdaptivePollutionWindow(
            "a", "/data", start=10.0, end=500.0, catalog=50, seed=3
        )
        assert FaultSchedule([window]).apply(net) == 1
        net.run()
        log = window.log
        assert log.attempts > 0
        assert 0 <= log.delivered <= log.attempts
        assert sum(log.pulls) == log.attempts
        assert len(log.attempt_times) == log.attempts
        assert all(10.0 <= t < 500.0 for t in log.attempt_times)
        assert 0 <= window.log.favored_arm() < len(window.arms)
        # An undefended, always-answering producer: every fetch lands.
        assert log.success_rate == 1.0

    def test_same_seed_same_attack(self):
        def run(seed):
            net = star(seed=seed)
            window = AdaptivePollutionWindow(
                "a", "/data", start=10.0, end=400.0, catalog=50, seed=7
            )
            FaultSchedule([window]).apply(net)
            net.run()
            return window.log

        a, b = run(0), run(0)
        assert (a.attempts, a.delivered, a.pulls, a.wins) == (
            b.attempts, b.delivered, b.pulls, b.wins,
        )
        assert a.attempt_times == b.attempt_times

    def test_requests_before_counts_strictly_earlier_attempts(self):
        log = AdaptiveAttackLog(attempt_times=[1.0, 2.0, 3.0, 3.0, 9.0])
        log.attempts = 5
        assert log.requests_before(0.5) == 0
        assert log.requests_before(3.0) == 2
        assert log.requests_before(100.0) == 5

    def test_fresh_log_is_inert(self):
        log = AdaptiveAttackLog()
        assert log.favored_arm() == -1
        assert log.success_rate == 0.0

    def test_telemetry_excluded_from_window_equality(self):
        a = AdaptivePollutionWindow("a", "/data", 0.0, 10.0)
        b = AdaptivePollutionWindow("a", "/data", 0.0, 10.0)
        a.log.attempts = 42
        assert a == b  # the log is runtime telemetry, not configuration
