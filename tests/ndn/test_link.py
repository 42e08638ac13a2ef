"""Unit tests for faces, links, and delay models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ndn.errors import TopologyError
from repro.ndn.link import (
    Face,
    FixedDelay,
    GaussianJitterDelay,
    Link,
    LogNormalDelay,
)
from repro.ndn.name import Name
from repro.ndn.packets import Data, Interest


class Recorder:
    """Minimal PacketHandler recording everything it receives."""

    def __init__(self):
        self.interests = []
        self.data = []

    def receive_interest(self, interest, face):
        self.interests.append((interest, face))

    def receive_data(self, data, face):
        self.data.append((data, face))


def wire(engine, delay=1.0, loss=0.0, seed=0):
    a, b = Recorder(), Recorder()
    face_a, face_b = Face(a, "a"), Face(b, "b")
    link = Link(
        engine, face_a, face_b,
        delay_model=FixedDelay(delay),
        rng=np.random.default_rng(seed),
        loss_rate=loss,
    )
    return a, b, face_a, face_b, link


class TestDelayModels:
    def test_fixed_delay(self, rng):
        assert FixedDelay(2.5).sample(rng) == 2.5
        assert FixedDelay(2.5).mean == 2.5

    def test_fixed_delay_rejects_negative(self):
        with pytest.raises(TopologyError):
            FixedDelay(-1.0)

    def test_gaussian_jitter_respects_floor(self, rng):
        model = GaussianJitterDelay(base=1.0, jitter_std=5.0, floor=0.9)
        samples = [model.sample(rng) for _ in range(200)]
        assert min(samples) >= 0.9

    def test_gaussian_jitter_mean_near_base(self, rng):
        model = GaussianJitterDelay(base=5.0, jitter_std=0.1)
        samples = [model.sample(rng) for _ in range(500)]
        assert abs(np.mean(samples) - 5.0) < 0.05

    def test_lognormal_always_above_base(self, rng):
        model = LogNormalDelay(base=3.0, tail_scale=1.0)
        samples = [model.sample(rng) for _ in range(200)]
        assert min(samples) > 3.0

    def test_lognormal_mean_formula(self, rng):
        model = LogNormalDelay(base=0.0, tail_scale=1.0, sigma=0.5)
        samples = [model.sample(rng) for _ in range(200_000)]
        assert abs(np.mean(samples) - model.mean) < 0.02

    def test_lognormal_invalid_params(self):
        with pytest.raises(TopologyError):
            LogNormalDelay(base=-1.0, tail_scale=1.0)
        with pytest.raises(TopologyError):
            LogNormalDelay(base=1.0, tail_scale=1.0, sigma=0.0)


NON_FINITE = (float("nan"), float("inf"))


class TestNonFiniteDelays:
    """A NaN or infinite link delay would put an unordered time on both
    engines' queues; every delay parameter is refused up front."""

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_fixed_delay(self, value):
        with pytest.raises(TopologyError):
            FixedDelay(value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_gaussian_jitter(self, value):
        for kwargs in (
            dict(base=value, jitter_std=0.1),
            dict(base=1.0, jitter_std=value),
            dict(base=1.0, jitter_std=0.1, floor=value),
        ):
            with pytest.raises(TopologyError):
                GaussianJitterDelay(**kwargs)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_lognormal(self, value):
        for kwargs in (
            dict(base=value, tail_scale=1.0),
            dict(base=1.0, tail_scale=value),
            dict(base=1.0, tail_scale=1.0, sigma=value),
        ):
            with pytest.raises(TopologyError):
                LogNormalDelay(**kwargs)


class TestLinkTransmission:
    def test_interest_delivered_to_peer(self, engine):
        a, b, face_a, face_b, _ = wire(engine, delay=2.0)
        interest = Interest(name=Name.parse("/x"))
        face_a.send_interest(interest)
        engine.run()
        assert len(b.interests) == 1
        assert b.interests[0][0] is interest
        assert b.interests[0][1] is face_b
        assert engine.now == 2.0

    def test_data_delivered_to_peer(self, engine):
        a, b, face_a, face_b, _ = wire(engine)
        face_b.send_data(Data(name=Name.parse("/x")))
        engine.run()
        assert len(a.data) == 1

    def test_bidirectional(self, engine):
        a, b, face_a, face_b, _ = wire(engine)
        face_a.send_interest(Interest(name=Name.parse("/x")))
        face_b.send_interest(Interest(name=Name.parse("/y")))
        engine.run()
        assert len(a.interests) == 1
        assert len(b.interests) == 1

    def test_loss_drops_packets(self, engine):
        a, b, face_a, _, link = wire(engine, loss=0.5, seed=3)
        for _ in range(200):
            face_a.send_interest(Interest(name=Name.parse("/x")))
        engine.run()
        assert link.packets_lost > 50
        assert len(b.interests) == 200 - link.packets_lost

    def test_zero_loss_delivers_all(self, engine):
        a, b, face_a, _, link = wire(engine, loss=0.0)
        for _ in range(50):
            face_a.send_interest(Interest(name=Name.parse("/x")))
        engine.run()
        assert len(b.interests) == 50
        assert link.packets_lost == 0

    def test_counters(self, engine):
        a, b, face_a, face_b, link = wire(engine)
        face_a.send_interest(Interest(name=Name.parse("/x")))
        face_b.send_data(Data(name=Name.parse("/x")))
        engine.run()
        assert face_a.interests_out == 1
        assert face_b.data_out == 1
        assert link.packets_sent == 2


class TestWiringErrors:
    def test_unattached_face_cannot_send(self):
        face = Face(Recorder(), "lonely")
        with pytest.raises(TopologyError):
            face.send_interest(Interest(name=Name.parse("/x")))

    def test_face_cannot_join_two_links(self, engine):
        a, b, face_a, face_b, _ = wire(engine)
        c = Recorder()
        face_c = Face(c, "c")
        with pytest.raises(TopologyError):
            Link(engine, face_a, face_c, FixedDelay(1.0), np.random.default_rng(0))

    def test_peer_resolution(self, engine):
        a, b, face_a, face_b, link = wire(engine)
        assert face_a.peer is face_b
        assert link.other_end(face_b) is face_a

    def test_other_end_foreign_face_raises(self, engine):
        a, b, face_a, face_b, link = wire(engine)
        foreign = Face(Recorder(), "foreign")
        with pytest.raises(TopologyError):
            link.other_end(foreign)

    @pytest.mark.parametrize("rate", [-0.1, 1.01, 2.0])
    def test_invalid_loss_rate(self, engine, rate):
        a, b = Recorder(), Recorder()
        with pytest.raises(TopologyError):
            Link(
                engine, Face(a), Face(b), FixedDelay(1.0),
                np.random.default_rng(0), loss_rate=rate,
            )

    def test_unknown_packet_type_rejected(self, engine):
        a, b, face_a, _, link = wire(engine)
        with pytest.raises(TopologyError):
            link.transmit("not-a-packet", face_a)


class TestFaultSurface:
    def test_blackhole_link_accepted_and_drops_everything(self, engine):
        """loss_rate == 1.0 is a legal blackhole (the failure-test staple)."""
        a, b, face_a, _, link = wire(engine, loss=1.0)
        for _ in range(20):
            face_a.send_interest(Interest(name=Name.parse("/x")))
        engine.run()
        assert b.interests == []
        assert link.packets_lost == 20
