"""AsyncConsumer over UDP: deadline, cancellation, Nacks, prefix matching.

The fetch loop's own rules (retransmission, stale-Nack suppression,
unsolicited Data) are the simulator consumer's, checked in
``tests/ndn/test_apps.py`` and ``tests/ndn/test_nack_suppression.py``;
these cases check what only a socket run shows.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.deploy.clock import RealTimeEngine
from repro.deploy.endpoints import AsyncConsumer, AsyncProducer, FetchFailed
from repro.deploy.faces import AsyncUdpFace
from repro.faults.retry import RetryPolicy
from repro.ndn.name import Name
from repro.ndn.packets import NACK_NO_ROUTE, Data, Nack


class SilentUpstream:
    """Records interests, answers only when told to."""

    def __init__(self):
        self.interests = []
        self.face = None

    def receive_interest(self, interest, face):
        self.interests.append(interest)

    def receive_data(self, data, face):
        pass


async def consumer_rig():
    """Consumer wired to a silent upstream over loopback UDP."""
    engine = RealTimeEngine(asyncio.get_running_loop())
    upstream = SilentUpstream()
    upstream.face = await AsyncUdpFace.create(upstream, label="up")
    consumer = AsyncConsumer(engine, name="c")
    await consumer.attach(peer=upstream.face.local_addr)
    upstream.face.set_peer(consumer.face.local_addr)
    return engine, consumer, upstream


async def settle(predicate, timeout=2.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "condition never held"
        await asyncio.sleep(0.005)


def test_deadline_bounds_total_wait():
    async def scenario():
        engine, consumer, upstream = await consumer_rig()
        try:
            start = engine.now
            with pytest.raises(FetchFailed) as excinfo:
                await consumer.fetch(
                    "/a/never",
                    retry=RetryPolicy(retries=10, timeout=100.0, backoff=1.0),
                    deadline=250.0,
                )
            elapsed = engine.now - start
            # 10 retries x 100ms would be a full second; the deadline cut
            # it off around 250ms.
            assert elapsed < 600.0
            assert excinfo.value.reason in ("timeout", "deadline")
            # Lifetimes never exceeded the remaining budget.
            assert all(i.lifetime <= 250.0 for i in upstream.interests)
        finally:
            await consumer.close()
            await upstream.face.close()

    asyncio.run(scenario())


def test_matching_nack_aborts_and_no_route_fails_fast():
    async def scenario():
        engine, consumer, upstream = await consumer_rig()
        try:
            task = asyncio.ensure_future(
                consumer.fetch(
                    "/a/x",
                    retry=RetryPolicy(retries=3, timeout=500.0, backoff=1.0),
                )
            )
            await settle(lambda: len(upstream.interests) == 1)
            upstream.face.send_nack(
                Nack(name=Name.parse("/a/x"),
                     nonce=upstream.interests[0].nonce,
                     reason=NACK_NO_ROUTE)
            )
            with pytest.raises(FetchFailed) as excinfo:
                await task
            assert excinfo.value.reason == "no-route"
            assert excinfo.value.attempts == 1
            assert consumer.monitor.counter("interests_sent") == 1
            assert consumer.monitor.counter("fetch_nacked") == 1
        finally:
            await consumer.close()
            await upstream.face.close()

    asyncio.run(scenario())


def test_cancelled_fetch_withdraws_its_nonce():
    async def scenario():
        engine, consumer, upstream = await consumer_rig()
        try:
            tasks = [
                asyncio.ensure_future(consumer.fetch(f"/a/{i}")) for i in range(3)
            ]
            await settle(lambda: len(upstream.interests) == 3)
            assert consumer.pending_count == 3
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            assert all(task.cancelled() for task in tasks)
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(consumer.fetch("/a/slow"), 0.01)
            assert consumer.pending_count == 0
            # Data for a cancelled fetch finds no waiter, and no abandoned
            # attempt is retransmitted.
            upstream.face.send_data(Data(name=Name.parse("/a/0")))
            await settle(lambda: consumer.monitor.counter("unsolicited_data") == 1)
            assert consumer.monitor.counter("data_received") == 0
            assert engine.pending_count == 0
        finally:
            await consumer.close()
            await upstream.face.close()

    asyncio.run(scenario())


def test_prefix_interest_resolved_by_longer_data_name():
    async def scenario():
        engine, consumer, upstream = await consumer_rig()
        try:
            task = asyncio.ensure_future(consumer.fetch("/a"))
            await settle(lambda: len(upstream.interests) == 1)
            upstream.face.send_data(Data(name=Name.parse("/a/b")))
            result = await task
            assert result.data.name == Name.parse("/a/b")
            assert consumer.pending_count == 0
            assert consumer.monitor.counter("unsolicited_data") == 0
        finally:
            await consumer.close()
            await upstream.face.close()

    asyncio.run(scenario())


def test_waiters_on_one_name_resolve_oldest_first():
    async def scenario():
        engine, consumer, upstream = await consumer_rig()
        try:
            first = asyncio.ensure_future(consumer.fetch("/a/x"))
            await settle(lambda: len(upstream.interests) == 1)
            second = asyncio.ensure_future(consumer.fetch("/a/x"))
            await settle(lambda: len(upstream.interests) == 2)
            upstream.face.send_data(Data(name=Name.parse("/a/x")))
            await first
            await asyncio.sleep(0.02)
            assert not second.done() and consumer.pending_count == 1
            upstream.face.send_data(Data(name=Name.parse("/a/x")))
            await second
        finally:
            await consumer.close()
            await upstream.face.close()

    asyncio.run(scenario())


def test_earlier_prefix_waiter_wins_over_later_exact_waiter():
    async def scenario():
        engine, consumer, upstream = await consumer_rig()
        try:
            prefix = asyncio.ensure_future(consumer.fetch("/a"))
            await settle(lambda: len(upstream.interests) == 1)
            exact = asyncio.ensure_future(consumer.fetch("/a/b"))
            other = asyncio.ensure_future(consumer.fetch("/z"))
            await settle(lambda: len(upstream.interests) == 3)
            upstream.face.send_data(Data(name=Name.parse("/a/b")))
            await settle(lambda: prefix.done() or exact.done())
            assert prefix.done() and not exact.done()
            assert prefix.result().data.name == Name.parse("/a/b")
            await asyncio.sleep(0.02)
            assert not exact.done() and not other.done()
            upstream.face.send_data(Data(name=Name.parse("/a/b")))
            await exact
            assert not other.done() and consumer.pending_count == 1
            upstream.face.send_data(Data(name=Name.parse("/z")))
            await other
        finally:
            await consumer.close()
            await upstream.face.close()

    asyncio.run(scenario())


def test_producer_serves_over_udp():
    async def scenario():
        engine = RealTimeEngine(asyncio.get_running_loop())
        producer = AsyncProducer(engine, prefix="/shop", producer_id="shop")
        await producer.attach()
        consumer = AsyncConsumer(engine, name="c")
        await consumer.attach(peer=producer.face.local_addr)
        try:
            producer.publish("/shop/thing", size=128)
            result = await consumer.fetch(
                "/shop/thing",
                retry=RetryPolicy(retries=0, timeout=2000.0, backoff=1.0),
            )
            assert result.data.name == Name.parse("/shop/thing")
            assert result.data.size == 128
        finally:
            await consumer.close()
            await producer.close()

    asyncio.run(scenario())
