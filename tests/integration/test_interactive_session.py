"""Integration: interactive traffic protected by unpredictable names
(Section V-A), end to end through a shared router.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.naming.session import SessionNamer
from repro.ndn.apps.interactive import InteractiveEndpoint
from repro.ndn.link import FixedDelay
from repro.ndn.name import Name
from repro.ndn.network import Network
from repro.sim.process import Timeout
from repro.sim.rng import RngRegistry

SECRET = b"alice-bob-session-key"


def build_session(loss_rate=0.0, seed=0):
    """alice -- R -- bob, both endpoints of one interactive session."""
    net = Network(rng=RngRegistry(seed))
    router = net.add_router("R")
    alice = InteractiveEndpoint(
        net.engine,
        SessionNamer(SECRET, "/alice/voip", "/bob/voip"),
        label="alice",
    )
    bob = InteractiveEndpoint(
        net.engine,
        SessionNamer(SECRET, "/bob/voip", "/alice/voip"),
        label="bob",
    )
    net.add_endpoint("alice", alice)
    net.add_endpoint("bob", bob)
    net.connect("alice", "R", FixedDelay(1.0), loss_rate=loss_rate)
    net.connect("bob", "R", FixedDelay(1.0))
    net.add_route("R", "/alice", "alice")
    net.add_route("R", "/bob", "bob")
    adversary = net.add_consumer("adv")
    net.connect("adv", "R", FixedDelay(1.0))
    return net, alice, bob, adversary, router


class TestSessionDelivery:
    def test_bidirectional_frames_delivered(self):
        net, alice, bob, _, _ = build_session()
        net.spawn(alice.run_session(frames=10, frame_interval=20.0), "alice")
        net.spawn(bob.run_session(frames=10, frame_interval=20.0), "bob")
        net.run()
        assert len(alice.frame_stats) == 10
        assert len(bob.frame_stats) == 10
        assert all(s.latency == pytest.approx(4.0) for s in alice.frame_stats)

    def test_retransmission_recovers_from_loss(self):
        net, alice, bob, _, router = build_session(loss_rate=0.25, seed=3)
        net.spawn(alice.run_session(
            frames=30, frame_interval=20.0, retransmit_timeout=50.0
        ), "alice")
        net.spawn(bob.run_session(
            frames=30, frame_interval=20.0, retransmit_timeout=50.0
        ), "bob")
        net.run()
        delivered = len(alice.frame_stats) + len(bob.frame_stats)
        assert delivered >= 55  # most frames make it despite 25% loss
        retransmitted = alice.monitor.counter(
            "fetch_retransmits"
        ) + bob.monitor.counter("fetch_retransmits")
        assert retransmitted > 0
        # Every send after a frame's first is a retransmission.
        for endpoint in (alice, bob):
            assert endpoint.monitor.counter("fetch_retransmits") == (
                endpoint.monitor.counter("interests_sent") - 30
            )

    def test_frames_cached_at_router(self):
        """Caching still helps loss recovery: frames sit in R's cache."""
        net, alice, bob, _, router = build_session()
        net.spawn(alice.run_session(frames=5, frame_interval=20.0), "alice")
        net.spawn(bob.run_session(frames=5, frame_interval=20.0), "bob")
        net.run()
        assert len(router.cs) == 10  # 5 frames each direction


class TestPrivacyAgainstProbing:
    def test_prefix_probe_learns_nothing(self):
        """Footnote 5: an interest for the session prefix must not match
        the cached rand-named frames."""
        net, alice, bob, adversary, router = build_session()
        net.spawn(alice.run_session(frames=5, frame_interval=10.0), "alice")
        net.spawn(bob.run_session(frames=5, frame_interval=10.0), "bob")
        probed = []

        def adv_proc():
            yield Timeout(500.0)
            assert len(router.cs) == 10  # frames are cached...
            for prefix in ("/alice/voip", "/bob/voip", "/alice", "/bob"):
                result = yield from adversary.fetch(prefix, timeout=100.0)
                probed.append(result)

        net.spawn(adv_proc(), "adv")
        net.run()
        assert probed == [None, None, None, None]

    def test_guessing_rand_is_infeasible_without_secret(self):
        """An adversary guessing rand components has negligible hit odds;
        here the 'guess' is a wrong-secret derivation."""
        net, alice, bob, adversary, router = build_session()
        net.spawn(alice.run_session(frames=3, frame_interval=10.0), "alice")
        outsider = SessionNamer(b"wrong-secret", "/alice/voip", "/bob/voip")
        results = []

        def adv_proc():
            yield Timeout(300.0)
            for seq in range(3):
                guess = outsider.outgoing_name(seq)
                result = yield from adversary.fetch(guess, timeout=100.0)
                results.append(result)

        net.spawn(adv_proc(), "adv")
        net.run()
        assert results == [None, None, None]

    def test_correct_secret_does_match(self):
        """Sanity check of the oracle: with the right name the probe hits
        — the privacy rests entirely on name unpredictability."""
        net, alice, bob, adversary, router = build_session()
        net.spawn(alice.run_session(frames=3, frame_interval=10.0), "alice")
        insider = SessionNamer(SECRET, "/alice/voip", "/bob/voip")
        results = []

        def adv_proc():
            yield Timeout(300.0)
            result = yield from adversary.fetch(
                insider.outgoing_name(0), timeout=100.0
            )
            results.append(result)

        net.spawn(adv_proc(), "adv")
        net.run()
        assert results[0] is not None
