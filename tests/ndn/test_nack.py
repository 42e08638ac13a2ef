"""Nack plane: wire codec, forwarder rejection paths, consumer backoff."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.retry import RetryPolicy
from repro.ndn.admission import InterestRateLimit
from repro.ndn.errors import PacketError
from repro.ndn.forwarder import Forwarder
from repro.ndn.link import Face, FixedDelay, Link
from repro.ndn.name import Name
from repro.ndn.network import Network
from repro.ndn.packets import (
    NACK_CONGESTION,
    NACK_NO_ROUTE,
    NACK_PIT_FULL,
    NACK_REASONS,
    Data,
    Interest,
    Nack,
)
from repro.ndn.pit import Pit
from repro.ndn.wire import decode_packet, encode_packet, wire_size
from repro.sim.rng import RngRegistry


class NackRecorder:
    """End-host stub recording every packet, Nacks included."""

    def __init__(self, engine):
        self.engine = engine
        self.data = []
        self.nacks = []

    def receive_interest(self, interest, face):
        raise AssertionError("recorder received an interest")

    def receive_data(self, data, face):
        self.data.append((self.engine.now, data))

    def receive_nack(self, nack, face):
        self.nacks.append((self.engine.now, nack))


class LegacyRecorder:
    """Pre-Nack handler: no ``receive_nack`` method at all."""

    def __init__(self):
        self.data = []

    def receive_interest(self, interest, face):
        pass

    def receive_data(self, data, face):
        self.data.append(data)


class SilentProducer:
    """Never answers: every forwarded interest dangles in the PIT."""

    def receive_interest(self, interest, face):
        pass

    def receive_data(self, data, face):
        raise AssertionError("silent producer received data")


class NackingProducer:
    """Refuses every interest with a congestion Nack."""

    def receive_interest(self, interest, face):
        face.send_nack(Nack.for_interest(interest, NACK_CONGESTION))

    def receive_data(self, data, face):
        raise AssertionError("nacking producer received data")


def build(engine, upstream, pit=None, rate_limit=None, nack_on_no_route=False,
          routed=True):
    """consumer -- R -- upstream, 1 ms / 5 ms fixed delays."""
    router = Forwarder(
        engine, "R", pit=pit, rate_limit=rate_limit,
        nack_on_no_route=nack_on_no_route,
    )
    consumer = NackRecorder(engine)
    c_face = Face(consumer, "c")
    r_down = router.create_face("down")
    Link(engine, c_face, r_down, FixedDelay(1.0), np.random.default_rng(0))
    p_face = Face(upstream, "p")
    r_up = router.create_face("up")
    Link(engine, r_up, p_face, FixedDelay(5.0), np.random.default_rng(1))
    if routed:
        router.fib.add_route(Name.root(), r_up)
    return router, consumer, c_face


class TestNackPacket:
    def test_unknown_reason_rejected(self):
        with pytest.raises(PacketError):
            Nack(name=Name.parse("/a"), reason="because")

    def test_invalid_hops_rejected(self):
        with pytest.raises(PacketError):
            Nack(name=Name.parse("/a"), hops=0)

    def test_for_interest_copies_name_and_nonce(self):
        interest = Interest(name=Name.parse("/a/b"))
        nack = Nack.for_interest(interest, NACK_PIT_FULL)
        assert nack.name == interest.name
        assert nack.nonce == interest.nonce
        assert nack.reason == NACK_PIT_FULL

    def test_hop_increments_and_preserves_identity(self):
        nack = Nack(name=Name.parse("/a"), nonce=42, reason=NACK_NO_ROUTE)
        hopped = nack.hop()
        assert hopped.hops == nack.hops + 1
        assert hopped.nonce == 42
        assert hopped.reason == NACK_NO_ROUTE


class TestNackWire:
    @pytest.mark.parametrize("reason", NACK_REASONS)
    def test_roundtrip(self, reason):
        nack = Nack(
            name=Name.parse("/cnn/news/2013may20"), nonce=77,
            reason=reason, hops=3,
        )
        assert decode_packet(encode_packet(nack)) == nack

    def test_wire_size_positive(self):
        assert wire_size(Nack(name=Name.parse("/a"))) > 0

    def test_decode_distinguishes_packet_types(self):
        packets = [
            Interest(name=Name.parse("/a")),
            Data(name=Name.parse("/a")),
            Nack(name=Name.parse("/a")),
        ]
        decoded = [decode_packet(encode_packet(p)) for p in packets]
        assert [type(p) for p in decoded] == [Interest, Data, Nack]


class TestForwarderRejections:
    def test_pit_full_drop_new_nacks_arrival_face(self, engine):
        router, consumer, c_face = build(
            engine, SilentProducer(), pit=Pit(capacity=1, overflow="drop-new")
        )
        c_face.send_interest(Interest(name=Name.parse("/a")))
        c_face.send_interest(Interest(name=Name.parse("/b")))
        engine.run(until=50.0)
        assert router.monitor.counter("pit_overflow_drop") == 1
        assert len(consumer.nacks) == 1
        _, nack = consumer.nacks[0]
        assert nack.name == Name.parse("/b")
        assert nack.reason == NACK_PIT_FULL

    def test_preemption_nacks_the_evicted_entrys_faces(self, engine):
        router, consumer, c_face = build(
            engine, SilentProducer(),
            pit=Pit(capacity=1, overflow="evict-oldest-expiry"),
        )
        c_face.send_interest(Interest(name=Name.parse("/victim")))
        c_face.send_interest(Interest(name=Name.parse("/winner")))
        engine.run(until=50.0)
        assert router.monitor.counter("pit_preempted") == 1
        # The preempted entry's face was told, and the new interest won.
        assert [n.name for _, n in consumer.nacks] == [Name.parse("/victim")]
        assert consumer.nacks[0][1].reason == NACK_PIT_FULL
        assert Name.parse("/winner") in router.pit

    def test_rate_limit_nacks_congestion(self, engine):
        router, consumer, c_face = build(
            engine, SilentProducer(),
            rate_limit=InterestRateLimit(rate=100.0, burst=1.0),
        )
        # Two back-to-back interests against a 1-token bucket.
        c_face.send_interest(Interest(name=Name.parse("/a")))
        c_face.send_interest(Interest(name=Name.parse("/b")))
        engine.run(until=50.0)
        assert router.monitor.counter("rate_limited") == 1
        assert len(consumer.nacks) == 1
        assert consumer.nacks[0][1].reason == NACK_CONGESTION

    def test_no_route_silent_by_default(self, engine):
        router, consumer, c_face = build(engine, SilentProducer(), routed=False)
        c_face.send_interest(Interest(name=Name.parse("/a")))
        engine.run()
        assert router.monitor.counter("no_route") == 1
        assert consumer.nacks == []

    def test_no_route_nacks_when_enabled(self, engine):
        router, consumer, c_face = build(
            engine, SilentProducer(), routed=False, nack_on_no_route=True
        )
        c_face.send_interest(Interest(name=Name.parse("/a")))
        engine.run()
        assert router.monitor.counter("no_route") == 1
        assert len(consumer.nacks) == 1
        assert consumer.nacks[0][1].reason == NACK_NO_ROUTE


class TestNackPropagation:
    def test_upstream_nack_clears_pit_and_reaches_consumer(self, engine):
        router, consumer, c_face = build(engine, NackingProducer())
        c_face.send_interest(Interest(name=Name.parse("/a")))
        engine.run()
        # c->R (1) + R->p (5) + p->R (5) + R->c (1) = 12 ms.
        assert [t for t, _ in consumer.nacks] == [pytest.approx(12.0)]
        nack = consumer.nacks[0][1]
        assert nack.reason == NACK_CONGESTION
        assert nack.hops == 2  # incremented by the forwarder on the way down
        assert len(router.pit) == 0
        assert router.monitor.counter("pit_nacked") == 1
        assert router.monitor.counter("nack_in") == 1

    def test_nack_fans_out_to_all_collapsed_faces(self, engine):
        router = Forwarder(engine, "R")
        consumers = [NackRecorder(engine), NackRecorder(engine)]
        faces = []
        for i, consumer in enumerate(consumers):
            c_face = Face(consumer, f"c{i}")
            Link(engine, c_face, router.create_face(), FixedDelay(1.0),
                 np.random.default_rng(i))
            faces.append(c_face)
        p_face = Face(NackingProducer(), "p")
        r_up = router.create_face("up")
        Link(engine, r_up, p_face, FixedDelay(5.0), np.random.default_rng(9))
        router.fib.add_route(Name.root(), r_up)
        for c_face in faces:
            c_face.send_interest(Interest(name=Name.parse("/a")))
        engine.run()
        assert router.pit.collapsed == 1
        for consumer in consumers:
            assert len(consumer.nacks) == 1

    def test_nack_without_pit_entry_is_counted_and_dropped(self, engine):
        router, consumer, c_face = build(engine, SilentProducer())
        router.receive_nack(
            Nack(name=Name.parse("/never/asked")), router.faces[1]
        )
        engine.run()
        assert router.monitor.counter("nack_no_pit") == 1
        assert consumer.nacks == []

    def test_legacy_handler_without_receive_nack_keeps_working(self, engine):
        legacy = LegacyRecorder()
        router = Forwarder(engine, "R", pit=Pit(capacity=1, overflow="drop-new"))
        c_face = Face(legacy, "c")
        link = Link(engine, c_face, router.create_face(), FixedDelay(1.0),
                    np.random.default_rng(0))
        p_face = Face(SilentProducer(), "p")
        r_up = router.create_face("up")
        Link(engine, r_up, p_face, FixedDelay(5.0), np.random.default_rng(1))
        router.fib.add_route(Name.root(), r_up)
        c_face.send_interest(Interest(name=Name.parse("/a")))
        c_face.send_interest(Interest(name=Name.parse("/b")))
        engine.run(until=50.0)
        # The Nack for /b died at the link, visibly, and nothing crashed.
        assert link.nacks_unhandled == 1
        assert router.monitor.counter("pit_overflow_drop") == 1


class TestConsumerBackoff:
    def net(self, nack_on_no_route=True):
        net = Network(rng=RngRegistry(3))
        net.add_router("R", nack_on_no_route=nack_on_no_route)
        net.add_consumer("c")
        net.connect("c", "R", FixedDelay(1.0))
        return net

    def test_fetch_backs_off_on_nack_and_exhausts_budget(self):
        net = self.net()
        outcome = {}

        def proc():
            result = yield from net["c"].fetch(
                "/nowhere/x",
                retry=RetryPolicy(retries=2, timeout=50.0, backoff=2.0),
            )
            outcome["result"] = result
            outcome["time"] = net.engine.now

        net.spawn(proc(), "fetcher")
        net.run()
        assert outcome["result"] is None
        consumer = net["c"].monitor
        assert consumer.counter("fetch_nacked") == 3  # every attempt refused
        assert consumer.counter("nacks_received") == 3
        assert consumer.counter("fetch_failures") == 1
        # Each Nacked attempt waits out its full backoff window before
        # retrying: 50 + 100 + 200 ms, plus the 2 ms Nack round trips.
        assert outcome["time"] >= 350.0

    def test_unsolicited_nack_counted(self):
        net = self.net()
        consumer = net["c"]
        consumer.receive_nack(
            Nack(name=Name.parse("/never/asked")), consumer.face
        )
        assert consumer.monitor.counter("unsolicited_nack") == 1


class TestStatsSummary:
    def test_summary_mirrors_state(self, engine):
        router, consumer, c_face = build(
            engine, SilentProducer(), pit=Pit(capacity=2, overflow="drop-new")
        )
        for name in ("/a", "/b", "/c"):
            c_face.send_interest(Interest(name=Name.parse(name)))
        engine.run(until=50.0)
        summary = router.stats_summary()
        assert summary["pit_size"] == 2.0
        assert summary["pit_capacity"] == 2.0
        assert summary["pit_overflow_dropped"] == 1.0
        assert summary["nack_out"] == 1.0
        # Pure: reading the summary twice changes nothing.
        counters = router.monitor.counters
        assert router.stats_summary() == summary
        assert router.monitor.counters == counters

    def test_unbounded_tables_report_infinite_capacity(self, engine):
        router = Forwarder(engine, "R")
        summary = router.stats_summary()
        assert summary["pit_capacity"] == float("inf")
        assert summary["cs_capacity"] == float("inf")
