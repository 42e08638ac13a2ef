"""FaultSchedule: windows fire as events, crash semantics, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import (
    BurstLossWindow,
    DelaySpikeWindow,
    FaultConfigError,
    FaultSchedule,
    GilbertElliottLoss,
    LinkDownWindow,
    RetryPolicy,
    RouterCrash,
    random_link_flaps,
)
from repro.ndn.link import FixedDelay
from repro.ndn.network import Network
from repro.sim.process import Timeout
from repro.sim.rng import RngRegistry


def chain(seed=0):
    net = Network(rng=RngRegistry(seed))
    net.add_router("R")
    net.add_consumer("c")
    net.add_producer("p", "/data")
    net.connect("c", "R", FixedDelay(1.0))
    net.connect("R", "p", FixedDelay(3.0))
    net.add_route("R", "/data", "p")
    return net


def fetch_loop(net, count=10, gap=50.0, retry=None, record=None, timeout=30.0):
    consumer = net["c"]

    def proc():
        for i in range(count):
            result = yield from consumer.fetch(
                f"/data/obj-{i}", timeout=timeout, retry=retry
            )
            if record is not None:
                record.append((i, result is not None))
            yield Timeout(gap)

    net.spawn(proc(), "driver")


class TestValidation:
    def test_unknown_link_rejected_before_scheduling(self):
        net = chain()
        schedule = FaultSchedule([LinkDownWindow("c<->X", 10, 20)])
        before = net.engine.pending_count
        with pytest.raises(FaultConfigError, match="unknown link"):
            schedule.apply(net)
        assert net.engine.pending_count == before  # nothing partially applied

    def test_unknown_router_rejected(self):
        net = chain()
        with pytest.raises(FaultConfigError, match="unknown router"):
            FaultSchedule([RouterCrash("X", 10)]).apply(net)

    def test_window_in_the_past_rejected(self):
        net = chain()
        net.engine.schedule(100.0, lambda: None)
        net.run(until=50.0)
        with pytest.raises(FaultConfigError, match="past"):
            FaultSchedule([LinkDownWindow("c<->R", 10, 20)]).apply(net)

    @pytest.mark.parametrize(
        "fault",
        [
            lambda: LinkDownWindow("l", 20, 10),
            lambda: LinkDownWindow("l", -1, 10),
            lambda: DelaySpikeWindow("l", 0, 10, extra_delay=0.0),
            lambda: RouterCrash("r", 10, restart_at=5),
            lambda: RouterCrash("r", 10, mode="mystery"),
        ],
    )
    def test_bad_fault_construction(self, fault):
        with pytest.raises(FaultConfigError):
            fault()

    # NaN compares false both ways: each guard must refuse it at build
    # time, not leave it to fail when the window opens mid-run.
    @pytest.mark.parametrize(
        "fault",
        [
            lambda: LinkDownWindow("l", float("nan"), 10),
            lambda: LinkDownWindow("l", 0, float("nan")),
            lambda: DelaySpikeWindow("l", 1.0, 2.0, extra_delay=float("nan")),
            lambda: DelaySpikeWindow("l", 1.0, 2.0, extra_delay=float("inf")),
            lambda: RouterCrash("r", float("nan")),
            lambda: RouterCrash("r", 10, restart_at=float("nan")),
        ],
        ids=["start", "end", "extra_delay-nan", "extra_delay-inf", "at", "restart_at"],
    )
    def test_non_finite_field_refused(self, fault):
        with pytest.raises(FaultConfigError):
            fault()

    def test_add_rejects_unknown_type(self):
        with pytest.raises(FaultConfigError):
            FaultSchedule().add("not-a-fault")


class TestLinkWindows:
    def test_down_window_blocks_then_recovers(self):
        net = chain()
        record = []
        # Fetches at t=0,51,102,...; link down for [40, 160).
        FaultSchedule([LinkDownWindow("c<->R", 40.0, 160.0)]).apply(net)
        fetch_loop(net, count=6, gap=43.0, record=record)
        net.run()
        outcomes = dict(record)
        assert outcomes[0] is True  # before the outage
        assert not all(outcomes.values())  # outage cost at least one fetch
        assert outcomes[5] is True  # recovered after the window
        assert net.links["c<->R"].packets_dropped_down > 0

    def test_retry_policy_rides_through_outage(self):
        net = chain()
        record = []
        FaultSchedule([LinkDownWindow("c<->R", 40.0, 160.0)]).apply(net)
        retry = RetryPolicy(retries=6, timeout=40.0, backoff=1.5)
        fetch_loop(net, count=6, gap=43.0, retry=retry, record=record)
        net.run()
        assert all(ok for _, ok in record)  # retransmission recovers everything
        assert net["c"].monitor.counter("fetch_retransmits") > 0

    def test_delay_spike_window(self):
        net = chain()
        rtts = net["c"].rtts
        spike = DelaySpikeWindow("c<->R", 100.0, 200.0, extra_delay=20.0)
        FaultSchedule([spike]).apply(net)
        fetch_loop(net, count=3, gap=100.0, timeout=300.0)
        net.run()
        # Fetch 0 at t=0 (clean), fetch 1 at ~t=108 (spiked both ways).
        assert rtts[0] == pytest.approx(8.0)
        assert rtts[1] == pytest.approx(48.0)
        assert rtts[2] == pytest.approx(8.0)  # spike removed

    def test_burst_loss_window_installs_and_restores(self):
        net = chain(seed=11)
        link = net.links["c<->R"]
        model = GilbertElliottLoss(p=1.0, r=0.0, loss_bad=1.0)  # all-loss after 1 pkt
        FaultSchedule([BurstLossWindow("c<->R", 50.0, 150.0, model)]).apply(net)
        record = []
        fetch_loop(net, count=4, gap=60.0, record=record)
        net.run()
        assert link.loss_model is None  # restored after the window
        assert link.packets_lost > 0
        outcomes = dict(record)
        assert outcomes[0] is True
        assert outcomes[3] is True  # clean again after the episode


class TestRouterCrash:
    def _crash_net(self, mode):
        net = chain()
        record = []
        schedule = FaultSchedule(
            [RouterCrash("R", at=100.0, restart_at=150.0, mode=mode)]
        )
        schedule.apply(net)
        consumer = net["c"]

        def proc():
            # Warm the cache, then probe the same object after the restart.
            first = yield from consumer.fetch("/data/x", timeout=50.0)
            record.append(first is not None)
            yield Timeout(200.0)  # crash + restart happen in here
            again = yield from consumer.fetch("/data/x", timeout=50.0)
            record.append(again is not None)

        net.spawn(proc(), "driver")
        net.run()
        return net, record

    def test_crash_flush_empties_cs(self):
        net, record = self._crash_net("flush")
        assert record == [True, True]
        router = net["R"]
        assert router.monitor.counter("crashes") == 1
        assert router.monitor.counter("restarts") == 1
        # Cold restart: the re-fetch missed at R and went to the producer.
        assert router.monitor.counter("cs_miss") == 2

    def test_crash_warm_preserves_cs(self):
        net, record = self._crash_net("warm")
        assert record == [True, True]
        router = net["R"]
        # Warm restore: the re-fetch hit the surviving CS entry.
        assert router.monitor.counter("cs_hit") == 1
        assert router.monitor.counter("cs_miss") == 1

    def test_down_router_drops_and_counts(self):
        net = chain()
        FaultSchedule([RouterCrash("R", at=0.5)]).apply(net)  # no restart
        record = []
        fetch_loop(net, count=2, gap=40.0, record=record)
        net.run()
        assert all(not ok for _, ok in record)
        assert net["R"].monitor.counter("down_dropped_interest") >= 2

    def test_crash_cancels_pit_timers(self):
        net = chain()
        router = net["R"]
        net["p"].auto_generate = False  # never answers: PIT entry lingers
        FaultSchedule([RouterCrash("R", at=20.0, restart_at=30.0)]).apply(net)
        fetch_loop(net, count=1)
        net.run()
        assert len(router.pit) == 0
        assert router.monitor.counter("pit_expired") == 0  # cancelled, not fired

    def test_double_crash_and_restart_idempotent(self, engine):
        net = chain()
        router = net["R"]
        router.crash()
        router.crash()
        assert router.monitor.counter("crashes") == 1
        router.restart()
        router.restart()
        assert router.monitor.counter("restarts") == 1
        with pytest.raises(ValueError):
            router.crash(mode="mystery")


def run_fault_scenario(seed):
    """One full faulted run; returns a stats snapshot for comparison."""
    net = chain(seed=seed)
    rng = net.rng.fork("fault-schedule")
    schedule = random_link_flaps(
        rng, ["c<->R", "R<->p"], horizon=2000.0, mean_uptime=300.0, mean_downtime=60.0
    )
    schedule.add(RouterCrash("R", at=900.0, restart_at=1000.0, mode="flush"))
    schedule.add(DelaySpikeWindow("R<->p", 1200.0, 1500.0, extra_delay=15.0))
    schedule.apply(net)
    record = []
    fetch_loop(
        net,
        count=20,
        gap=70.0,
        retry=RetryPolicy(retries=3, timeout=25.0, backoff=2.0),
        record=record,
    )
    net.run()
    link = net.links["c<->R"]
    return {
        "outcomes": tuple(record),
        "rtts": tuple(net["c"].rtts),
        "now": net.engine.now,
        "events": net.engine.events_processed,
        "sent": link.packets_sent,
        "lost": link.packets_lost,
        "down_dropped": link.packets_dropped_down,
        "router": dict(net["R"].monitor.counters),
        "consumer": dict(net["c"].monitor.counters),
    }


class TestDeterminism:
    def test_same_schedule_and_seed_identical_stats(self):
        """The ISSUE acceptance criterion: repeated runs are bit-identical."""
        assert run_fault_scenario(3) == run_fault_scenario(3)

    def test_different_seed_differs(self):
        assert run_fault_scenario(3) != run_fault_scenario(4)

    def test_random_link_flaps_reproducible(self):
        first = random_link_flaps(
            np.random.default_rng(5), ["a", "b"], 1000.0, 100.0, 20.0
        )
        second = random_link_flaps(
            np.random.default_rng(5), ["a", "b"], 1000.0, 100.0, 20.0
        )
        assert first.faults == second.faults
        assert len(first) > 0
        for fault in first:
            assert 0.0 <= fault.start < fault.end <= 1000.0

    def test_random_link_flaps_respects_settle_time(self):
        schedule = random_link_flaps(
            np.random.default_rng(5), ["a"], 500.0, 10.0, 10.0, settle_time=100.0
        )
        assert all(fault.start >= 100.0 for fault in schedule)

    def test_random_link_flaps_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(FaultConfigError):
            random_link_flaps(rng, ["a"], 0.0, 10.0, 10.0)
        with pytest.raises(FaultConfigError):
            random_link_flaps(rng, ["a"], 100.0, -1.0, 10.0)
