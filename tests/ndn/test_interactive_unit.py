"""Direct unit tests for the interactive endpoint (session runs are
covered by the integration suite)."""

from __future__ import annotations

import pytest

from repro.naming.session import SessionNamer
from repro.ndn.apps.interactive import FrameStats, InteractiveEndpoint
from repro.ndn.link import Face, FixedDelay, Link
from repro.ndn.name import Name
from repro.ndn.network import Network
from repro.ndn.packets import Data, Interest
from repro.sim.batch import BatchCompileError, compile_topology
from repro.sim.batch.script import ConsumerScript, FetchStep
from repro.sim.engine import Engine

import numpy as np

SECRET = b"unit-secret"


def endpoint(engine):
    namer = SessionNamer(SECRET, "/alice/voip", "/bob/voip")
    return InteractiveEndpoint(engine, namer, label="alice")


class TestPublishing:
    def test_publish_frame_layout(self, engine):
        ep = endpoint(engine)
        data = ep.publish_frame(0)
        assert Name.parse("/alice/voip").is_prefix_of(data.name)
        assert data.private
        assert data.exact_match_only
        assert ep.monitor.counter("frames_published") == 1

    def test_frames_reproducible_per_sequence(self, engine):
        ep = endpoint(engine)
        assert ep.publish_frame(3).name == ep.publish_frame(3).name


class TestServing:
    def test_serves_exact_published_frame(self, engine):
        ep = endpoint(engine)
        data = ep.publish_frame(0)
        sent = []
        face = Face(ep, "f")

        class PeerSink:
            def receive_interest(self, interest, f):
                pass

            def receive_data(self, d, f):
                sent.append(d)

        Link(engine, face, Face(PeerSink(), "peer"), FixedDelay(0.1),
             np.random.default_rng(0))
        ep.receive_interest(Interest(name=data.name), face)
        engine.run()
        assert sent == [data]
        assert ep.monitor.counter("frames_served") == 1

    def test_unknown_interest_ignored(self, engine):
        ep = endpoint(engine)
        ep.publish_frame(0)
        ep.receive_interest(
            Interest(name=Name.parse("/alice/voip/999/bogus")), None
        )
        assert ep.monitor.counter("unknown_interest") == 1


class TestRequesting:
    def test_unsolicited_data_counted(self, engine):
        ep = endpoint(engine)
        ep.receive_data(Data(name=Name.parse("/bob/voip/0/ffff")), None)
        assert ep.monitor.counter("unsolicited_data") == 1

    def test_request_resolved_by_matching_data(self, engine):
        ep = endpoint(engine)
        ep.create_face()

        class Absorb:
            def receive_interest(self, interest, f):
                pass

            def receive_data(self, d, f):
                pass

        Link(engine, ep.face, Face(Absorb(), "net"), FixedDelay(0.1),
             np.random.default_rng(0))
        proc = engine.spawn(ep.run_session(frames=1, frame_interval=10.0))
        frame = Data(name=ep.namer.incoming_name(0))
        engine.schedule(5.0, ep.receive_data, frame, ep.face)
        engine.run()
        assert proc.result == [FrameStats(sequence=0, latency=5.0, retransmitted=False)]
        assert ep.monitor.counter("data_received") == 1


def test_batch_compiler_refuses_an_endpoint():
    """An endpoint is a Consumer that also serves frames, which the batch
    kernel does not model: a network holding one stays on the reference
    engine."""
    net = Network()
    net.add_router("R")
    net.add_endpoint(
        "alice", InteractiveEndpoint(net.engine, SessionNamer(SECRET, "/a", "/b"), "alice")
    )
    net.connect("alice", "R", FixedDelay(1.0))
    net.add_route("R", "/a", "alice")
    net.add_consumer("c")
    net.connect("c", "R", FixedDelay(1.0))
    script = ConsumerScript("c", (FetchStep("/a/x"),))
    with pytest.raises(BatchCompileError, match="unsupported type InteractiveEndpoint"):
        compile_topology(net, [script])
