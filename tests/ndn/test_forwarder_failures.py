"""Forwarder failure paths: PIT expiry, no_route, scope_drop, and
retransmission re-forwarding when the upstream drops packets.

Complements test_forwarder.py (happy paths) with the loss behaviors the
consumer's retransmission machinery must ride through.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import RetryPolicy
from repro.ndn.cs import ContentStore
from repro.ndn.forwarder import Forwarder
from repro.ndn.link import Face, FixedDelay, Link
from repro.ndn.name import Name
from repro.ndn.network import Network
from repro.ndn.packets import Data, Interest
from repro.sim.process import Timeout
from repro.sim.rng import RngRegistry


class SilentApp:
    """Endpoint that records traffic and never replies."""

    def __init__(self, engine):
        self.engine = engine
        self.interests = []
        self.data = []

    def receive_interest(self, interest, face):
        self.interests.append((self.engine.now, interest))

    def receive_data(self, data, face):
        self.data.append((self.engine.now, data))


class EchoProducer:
    """Answers every interest immediately with matching content."""

    def __init__(self):
        self.served = 0

    def receive_interest(self, interest, face):
        self.served += 1
        face.send_data(Data(name=interest.name))

    def receive_data(self, data, face):
        raise AssertionError("producer received data")


def build(engine, producer=None, consumer_delay=1.0, producer_delay=5.0):
    """consumer -- R -- producer; returns the upstream link for fault poking."""
    router = Forwarder(engine, "R", cs=ContentStore(capacity=16))
    consumer = SilentApp(engine)
    producer = producer if producer is not None else EchoProducer()
    c_face = Face(consumer, "c")
    Link(engine, c_face, router.create_face("down"),
         FixedDelay(consumer_delay), np.random.default_rng(0))
    p_face = Face(producer, "p")
    r_up = router.create_face("up")
    up_link = Link(engine, r_up, p_face,
                   FixedDelay(producer_delay), np.random.default_rng(1))
    router.fib.add_route(Name.root(), r_up)
    return router, consumer, producer, c_face, up_link


class TestPitExpiry:
    def test_expiry_timer_fires_and_clears_entry(self, engine):
        router, consumer, _, c_face, _ = build(engine, producer=SilentApp(engine))
        c_face.send_interest(Interest(name=Name.parse("/a"), lifetime=20.0))
        engine.run()
        assert router.monitor.counter("pit_expired") == 1
        assert len(router.pit) == 0
        assert consumer.data == []
        # Entry expired at receive time (t=1) + lifetime.
        assert engine.now == pytest.approx(21.0)

    def test_retransmission_extends_expiry(self, engine):
        router, _, _, c_face, _ = build(engine, producer=SilentApp(engine))
        c_face.send_interest(Interest(name=Name.parse("/a"), lifetime=20.0))
        engine.schedule(
            10.0,
            lambda: c_face.send_interest(
                Interest(name=Name.parse("/a"), lifetime=20.0)
            ),
        )
        engine.run()
        assert router.monitor.counter("pit_expired") == 1  # one entry, one timer
        assert engine.now == pytest.approx(31.0)  # refreshed at t=11

    def test_data_after_expiry_is_unsolicited(self, engine):
        # Producer RTT (2 * 30 ms) exceeds the 20 ms PIT lifetime.
        router, consumer, _, c_face, _ = build(engine, producer_delay=30.0)
        c_face.send_interest(Interest(name=Name.parse("/a"), lifetime=20.0))
        engine.run()
        assert router.monitor.counter("pit_expired") == 1
        assert router.monitor.counter("unsolicited_data") == 1
        assert consumer.data == []


class TestNoRoute:
    def test_unroutable_prefix_dropped_routable_still_served(self, engine):
        router, consumer, producer, c_face, _ = build(engine)
        router.fib = type(router.fib)()
        up_face = router.faces[-1]
        router.fib.add_route(Name.parse("/data"), up_face)

        c_face.send_interest(Interest(name=Name.parse("/other/x")))
        c_face.send_interest(Interest(name=Name.parse("/data/x")))
        engine.run()
        assert router.monitor.counter("no_route") == 1
        assert router.monitor.counter("interest_forwarded") == 1
        assert len(router.pit) == 0
        assert producer.served == 1
        assert [str(data.name) for _, data in consumer.data] == ["/data/x"]


class TestScopeDrop:
    def test_scope_drop_leaves_no_pit_state(self, engine):
        router, consumer, producer, c_face, _ = build(engine)
        c_face.send_interest(Interest(name=Name.parse("/a"), scope=2))
        engine.run()
        assert router.monitor.counter("scope_drop") == 1
        assert len(router.pit) == 0
        # The same name remains fetchable without the scope cap.
        c_face.send_interest(Interest(name=Name.parse("/a")))
        engine.run()
        assert producer.served == 1
        assert len(consumer.data) == 1

    def test_scoped_retransmission_not_reforwarded(self, engine):
        # Slow producer: the retransmission arrives while the PIT entry is
        # still open, but its exhausted scope forbids re-forwarding.
        router, consumer, producer, c_face, _ = build(engine, producer_delay=50.0)
        c_face.send_interest(Interest(name=Name.parse("/a")))
        engine.schedule(
            5.0,
            lambda: c_face.send_interest(
                Interest(name=Name.parse("/a"), scope=2)
            ),
        )
        engine.run()
        assert router.monitor.counter("pit_collapse") == 1
        assert router.monitor.counter("interest_retransmitted") == 0
        assert producer.served == 1
        assert len(consumer.data) == 1


class TestRetransmitUnderLoss:
    def test_retransmission_reforwarded_after_upstream_outage(self, engine):
        router, consumer, producer, c_face, up_link = build(engine)
        # The upstream link loses everything until t=10.
        engine.schedule(0.0, setattr, up_link, "loss_rate", 1.0)
        c_face.send_interest(Interest(name=Name.parse("/a")))

        def recover():
            up_link.loss_rate = 0.0
            c_face.send_interest(Interest(name=Name.parse("/a")))

        engine.schedule(10.0, recover)
        engine.run()
        assert up_link.packets_lost == 1
        assert router.monitor.counter("interest_forwarded") == 1
        assert router.monitor.counter("interest_retransmitted") == 1
        assert producer.served == 1
        assert len(consumer.data) == 1


class TestConsumerRetry:
    """The fetch() retransmission loop against a faulty network."""

    def _chain(self, seed=0):
        net = Network(rng=RngRegistry(seed))
        net.add_router("R")
        net.add_consumer("c")
        net.add_producer("p", "/data")
        net.connect("c", "R", FixedDelay(1.0))
        net.connect("R", "p", FixedDelay(3.0))
        net.add_route("R", "/data", "p")
        return net

    def test_budget_exhaustion_counts_failure(self):
        net = self._chain()
        net["p"].auto_generate = False  # content never materializes
        outcome = []

        def proc():
            result = yield from net["c"].fetch(
                "/data/x",
                retry=RetryPolicy(retries=2, timeout=10.0, backoff=2.0),
            )
            outcome.append((net.engine.now, result))

        net.spawn(proc(), "driver")
        net.run()
        (when, result), = outcome
        assert result is None
        # Backoff schedule 10 + 20 + 40 ms, giving up at t=70.
        assert when == pytest.approx(70.0)
        monitor = net["c"].monitor
        assert monitor.counter("fetch_timeouts") == 3
        assert monitor.counter("fetch_retransmits") == 2
        assert monitor.counter("fetch_failures") == 1

    def test_retry_recovers_from_lossy_link(self):
        net = self._chain(seed=5)
        net.links["c<->R"].loss_rate = 0.3
        record = []

        def proc():
            for i in range(10):
                result = yield from net["c"].fetch(
                    f"/data/obj-{i}",
                    retry=RetryPolicy(retries=8, timeout=30.0, backoff=1.5),
                )
                record.append(result is not None)
                yield Timeout(10.0)

        net.spawn(proc(), "driver")
        net.run()
        assert all(record)  # every fetch eventually lands
        assert net["c"].monitor.counter("fetch_retransmits") > 0
        assert net["c"].monitor.counter("fetch_failures") == 0

    def test_jittered_retry_is_seed_reproducible(self):
        def run(seed):
            net = self._chain(seed=3)
            net.links["c<->R"].loss_rate = 0.4
            times = []

            def proc():
                rng = np.random.default_rng(seed)
                for i in range(5):
                    yield from net["c"].fetch(
                        f"/data/obj-{i}",
                        retry=RetryPolicy(
                            retries=6, timeout=20.0, backoff=2.0, jitter=0.3
                        ),
                        rng=rng,
                    )
                    times.append(net.engine.now)

            net.spawn(proc(), "driver")
            net.run()
            return tuple(times)

        assert run(1) == run(1)
        assert run(1) != run(2)
