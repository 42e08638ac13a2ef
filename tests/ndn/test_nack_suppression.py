"""Late-Nack duplicate-retry suppression (consumer + interactive).

The interactive endpoint fetches through the consumer's fetch loop, so
the Nack-matching rules are checked once, on :class:`Consumer`; the
endpoint's test checks that a session run gets them.

A Nack names the nonce of the transmission it rejects.  When the local
timeout fires first, the retry loop withdraws the pending entry and
re-arms a fresh attempt under the same name — so a Nack for the *old*
nonce arriving afterwards must not be delivered to the replacement
attempt.  Delivering it would abort a perfectly live attempt and trigger
a second, duplicate retransmission for the same failure.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.retry import RetryPolicy
from repro.naming.session import SessionNamer
from repro.ndn.apps.consumer import Consumer, FetchResult
from repro.ndn.apps.interactive import InteractiveEndpoint
from repro.ndn.link import Face, FixedDelay, Link
from repro.ndn.name import Name
from repro.ndn.packets import (
    NACK_CONGESTION,
    NACK_PIT_FULL,
    Data,
    Nack,
)


class BlackHole:
    """Upstream that records interests and never answers."""

    def __init__(self):
        self.interests = []

    def receive_interest(self, interest, face):
        self.interests.append(interest)

    def receive_data(self, data, face):  # pragma: no cover - not exercised
        pass


def rigged_consumer(engine):
    consumer = Consumer(engine, name="c")
    hole = BlackHole()
    Link(
        engine,
        consumer.create_face(),
        Face(hole, "hole"),
        FixedDelay(1.0),
        np.random.default_rng(0),
    )
    return consumer, hole


class TestConsumerSuppression:
    def test_late_nack_after_timeout_rearm_is_stale(self, engine):
        """Nack for attempt 0 lands while attempt 1 is live: dropped."""
        consumer, hole = rigged_consumer(engine)
        policy = RetryPolicy(retries=2, timeout=100.0, backoff=1.0)
        proc = engine.spawn(consumer.fetch("/a/x", retry=policy))

        def late_nack():
            # By t=150 attempt 0 timed out (t=100) and attempt 1 re-armed.
            first = hole.interests[0]
            consumer.receive_nack(
                Nack(name=first.name, nonce=first.nonce,
                     reason=NACK_CONGESTION),
                consumer.face,
            )

        engine.schedule(150.0, late_nack)

        def satisfy():
            consumer.receive_data(Data(name=Name.parse("/a/x")), consumer.face)

        engine.schedule(180.0, satisfy)
        engine.run()

        assert isinstance(proc.result, FetchResult)
        assert consumer.monitor.counter("stale_nacks") == 1
        # The stale Nack caused neither an abort nor an extra retransmit:
        # exactly one retransmit (the t=100 timeout) ever happened.
        assert consumer.monitor.counter("fetch_nacked") == 0
        assert consumer.monitor.counter("fetch_retransmits") == 1
        assert len(hole.interests) == 2

    def test_live_nack_matching_current_nonce_still_aborts(self, engine):
        consumer, hole = rigged_consumer(engine)
        policy = RetryPolicy(retries=1, timeout=100.0, backoff=1.0)
        proc = engine.spawn(consumer.fetch("/a/x", retry=policy))

        def live_nack():
            current = hole.interests[-1]
            consumer.receive_nack(
                Nack(name=current.name, nonce=current.nonce,
                     reason=NACK_CONGESTION),
                consumer.face,
            )

        engine.schedule(50.0, live_nack)
        engine.run()

        assert proc.result is None
        assert consumer.monitor.counter("fetch_nacked") == 1
        assert consumer.monitor.counter("stale_nacks") == 0

    def test_nonceless_pit_preemption_nack_hits_oldest_waiter(self, engine):
        """PIT-preemption Nacks are synthesized with nonce 0: they cannot
        be matched to a transmission, so the oldest waiter absorbs them."""
        consumer, hole = rigged_consumer(engine)
        first = consumer.express_interest("/a/x", lifetime=1000.0)
        second = consumer.express_interest("/a/x", lifetime=1000.0)
        consumer.receive_nack(
            Nack(name=Name.parse("/a/x"), nonce=0, reason=NACK_PIT_FULL),
            consumer.face,
        )
        assert first.triggered and isinstance(first.payload, Nack)
        assert not second.triggered
        assert consumer.monitor.counter("nacks_received") == 1

    def test_nack_for_unknown_name_is_unsolicited(self, engine):
        consumer, _ = rigged_consumer(engine)
        consumer.receive_nack(
            Nack(name=Name.parse("/never/asked"), nonce=5,
                 reason=NACK_CONGESTION),
            consumer.face,
        )
        assert consumer.monitor.counter("unsolicited_nack") == 1


SECRET = b"suppression-secret"


def rigged_endpoint(engine):
    namer = SessionNamer(SECRET, "/alice/voip", "/bob/voip")
    ep = InteractiveEndpoint(engine, namer, label="alice")
    hole = BlackHole()
    Link(
        engine,
        ep.create_face(),
        Face(hole, "hole"),
        FixedDelay(1.0),
        np.random.default_rng(0),
    )
    return ep, hole


class TestInteractiveSuppression:
    def test_late_nack_after_rearm_keeps_live_entry(self, engine):
        """The session re-requests frame 0 after a timeout; the Nack for
        the timed-out transmission must not cancel the re-request."""
        ep, hole = rigged_endpoint(engine)
        proc = engine.spawn(
            ep.run_session(
                frames=1, frame_interval=10.0,
                retransmit_timeout=100.0, max_retransmits=2,
            )
        )

        def late_nack():
            first = hole.interests[0]
            ep.receive_nack(
                Nack(name=first.name, nonce=first.nonce,
                     reason=NACK_CONGESTION),
                ep.face,
            )

        # Attempt 0 times out at t=100 and attempt 1 re-arms (same name,
        # fresh nonce); the old transmission's Nack lands at t=150.
        engine.schedule(150.0, late_nack)

        def satisfy():
            frame_name = hole.interests[0].name
            ep.receive_data(
                Data(name=frame_name, producer="bob", private=True,
                     exact_match_only=True),
                ep.face,
            )

        engine.schedule(180.0, satisfy)
        engine.run()

        stats = proc.result
        assert len(stats) == 1 and stats[0].retransmitted
        assert ep.monitor.counter("stale_nacks") == 1
        assert ep.monitor.counter("fetch_nacked") == 0
        # One timeout-driven retransmit; the stale Nack added none.
        assert ep.monitor.counter("fetch_retransmits") == 1
        assert len(hole.interests) == 2

    def one_frame_session(self, engine, nonce_of):
        """One frame, no retransmission, and a Nack for its interest at
        t=50 whose nonce ``nonce_of`` picks from the transmission."""
        ep, hole = rigged_endpoint(engine)
        proc = engine.spawn(
            ep.run_session(
                frames=1, frame_interval=10.0,
                retransmit_timeout=100.0, max_retransmits=0,
            )
        )

        def nack():
            sent = hole.interests[0]
            ep.receive_nack(
                Nack(name=sent.name, nonce=nonce_of(sent),
                     reason=NACK_CONGESTION),
                ep.face,
            )

        engine.schedule(50.0, nack)
        engine.run()
        return ep, proc

    def test_matching_nack_still_delivered(self, engine):
        ep, proc = self.one_frame_session(engine, lambda sent: sent.nonce)
        assert proc.result == []
        assert ep.monitor.counter("nacks_received") == 1
        assert ep.monitor.counter("fetch_nacked") == 1
        assert ep.monitor.counter("frames_lost") == 1

    def test_nonceless_nack_matches_any_entry(self, engine):
        ep, proc = self.one_frame_session(engine, lambda sent: 0)
        assert proc.result == []
        assert ep.monitor.counter("nacks_received") == 1
        assert ep.monitor.counter("stale_nacks") == 0
        assert ep.monitor.counter("frames_lost") == 1
