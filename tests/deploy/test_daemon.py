"""ForwarderDaemon loopback: a real fetch through a real forwarder."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.schemes.registry import SchemeError
from repro.deploy.daemon import DaemonConfig, ForwarderDaemon, make_scheme
from repro.deploy.endpoints import AsyncConsumer, AsyncProducer, FetchFailed
from repro.faults.retry import RetryPolicy
from repro.ndn.errors import TopologyError
from repro.ndn.name import Name


async def daemon_rig(scheme="no-privacy", **cfg_kwargs):
    """daemon with one consumer-side and one producer-side face, wired up."""
    daemon = ForwarderDaemon(DaemonConfig(name="t", scheme=scheme, **cfg_kwargs))
    await daemon.start()
    consumer_face = await daemon.add_udp_face(label="t:consumer")
    producer_face = await daemon.add_udp_face(label="t:producer")

    consumer = AsyncConsumer(daemon.engine, name="c")
    await consumer.attach(peer=consumer_face.local_addr)
    consumer_face.set_peer(consumer.face.local_addr)

    producer = AsyncProducer(daemon.engine, prefix="/shop", producer_id="shop")
    await producer.attach(peer=producer_face.local_addr)
    producer_face.set_peer(producer.face.local_addr)

    daemon.add_route("/shop", producer_face.face_id)
    return daemon, consumer, producer


async def teardown(daemon, consumer, producer):
    await consumer.close()
    await producer.close()
    await daemon.stop()


ONE_SHOT = RetryPolicy(retries=0, timeout=2000.0, backoff=1.0)


def test_fetch_roundtrip_and_cache_hit():
    async def scenario():
        daemon, consumer, producer = await daemon_rig()
        try:
            result = await consumer.fetch("/shop/item", retry=ONE_SHOT)
            assert result.data.name == Name.parse("/shop/item")
            assert consumer.monitor.counter("interests_sent") == 1
            assert consumer.monitor.counter("fetch_retransmits") == 0
            assert result.rtt > 0.0
            counters = daemon.forwarder.monitor.counters
            assert counters.get("cs_miss", 0) == 1
            # Second fetch is served from the daemon's Content Store.
            again = await consumer.fetch("/shop/item", retry=ONE_SHOT)
            assert again.data.name == Name.parse("/shop/item")
            assert daemon.forwarder.monitor.counters.get("cs_hit", 0) == 1
        finally:
            await teardown(daemon, consumer, producer)

    asyncio.run(scenario())


def test_daemon_face_takes_a_burst_per_wakeup():
    """32 concurrent fetchers reach the daemon as bursts, one fetcher as
    single datagrams; nothing is dropped either way."""

    async def scenario():
        daemon, consumer, producer = await daemon_rig()
        face = next(f for f in daemon.faces.values() if f.label == "t:consumer")
        names = [f"/shop/item-{i}" for i in range(16)]

        async def fetch_each(count):
            for i in range(count):
                await consumer.fetch(names[i % len(names)], retry=ONE_SHOT)

        async def datagrams_per_wakeup(workers, count):
            seen, woke = face.interests_in, face.rx_bursts
            await asyncio.gather(*(fetch_each(count) for _ in range(workers)))
            assert face.interests_in - seen == workers * count
            return (face.interests_in - seen) / (face.rx_bursts - woke)

        try:
            await fetch_each(len(names))  # warm the store
            assert await datagrams_per_wakeup(workers=1, count=32) == 1.0
            assert await datagrams_per_wakeup(workers=32, count=8) >= 4.0
            stats = face.stats()
            assert stats["rx_bursts"] == face.rx_bursts
            for f in (*daemon.faces.values(), consumer.face, producer.face):
                assert f.rx_overflow == f.tx_overflow == f.malformed_dropped == 0
        finally:
            await teardown(daemon, consumer, producer)

    asyncio.run(scenario())


def test_no_route_nack_fails_fast():
    async def scenario():
        daemon, consumer, producer = await daemon_rig()
        try:
            with pytest.raises(FetchFailed) as excinfo:
                await consumer.fetch(
                    "/nowhere/x",
                    retry=RetryPolicy(retries=3, timeout=2000.0, backoff=1.0),
                )
            # Fast-fail: the no-route Nack ends the fetch on attempt 1
            # instead of burning the whole retry budget.
            assert excinfo.value.reason == "no-route"
            assert excinfo.value.attempts == 1
        finally:
            await teardown(daemon, consumer, producer)

    asyncio.run(scenario())


def test_drain_mode_refuses_with_congestion_nack():
    async def scenario():
        daemon, consumer, producer = await daemon_rig()
        try:
            daemon.drain()
            with pytest.raises(FetchFailed):
                # Short budget: the congestion Nack burns the remaining
                # deadline as backoff before the fetch gives up.
                await consumer.fetch(
                    "/shop/item",
                    retry=RetryPolicy(retries=0, timeout=200.0, backoff=1.0),
                )
            assert daemon.drained_interests == 1
            assert consumer.monitor.counter("fetch_nacked") == 1
            # Undrain restores service.
            daemon.undrain()
            result = await consumer.fetch("/shop/item", retry=ONE_SHOT)
            assert result.data is not None
        finally:
            await teardown(daemon, consumer, producer)

    asyncio.run(scenario())


def test_scheme_swap_flushes_cache_and_serves():
    async def scenario():
        daemon, consumer, producer = await daemon_rig()
        try:
            await consumer.fetch("/shop/item", retry=ONE_SHOT)
            assert len(daemon.forwarder.cs) == 1
            assert str(daemon.set_scheme("uniform")) == "uniform(K=8)"
            assert len(daemon.forwarder.cs) == 0
            assert daemon.forwarder.scheme.name == "uniform-random-cache"
            result = await consumer.fetch("/shop/item", retry=ONE_SHOT)
            assert result.data is not None
        finally:
            await teardown(daemon, consumer, producer)

    asyncio.run(scenario())


def test_route_management_and_health():
    async def scenario():
        daemon, consumer, producer = await daemon_rig()
        try:
            health = daemon.health()
            assert health["up"] and health["ready"]
            assert health["faces_alive"] == 2
            producer_face = daemon.face_tuple()[1]
            daemon.remove_route("/shop", producer_face.face_id)
            with pytest.raises(FetchFailed) as excinfo:
                await consumer.fetch("/shop/late", retry=ONE_SHOT)
            assert excinfo.value.reason == "no-route"
            with pytest.raises(TopologyError):
                daemon.add_route("/shop", 9999)
        finally:
            await teardown(daemon, consumer, producer)

    asyncio.run(scenario())


def test_deadline_propagates_into_interest_lifetime():
    async def scenario():
        daemon, consumer, producer = await daemon_rig()
        try:
            seen = []
            consumer_face = daemon.face_tuple()[0]
            original_gate = consumer_face.interest_gate

            def spy(interest, face):
                seen.append(interest)
                return original_gate(interest, face)

            consumer_face.interest_gate = spy
            await consumer.fetch(
                "/shop/item",
                retry=RetryPolicy(retries=0, timeout=700.0, backoff=1.0),
                deadline=700.0,
            )
            assert len(seen) == 1
            # Lifetime is the remaining deadline budget at send time.
            assert seen[0].lifetime <= 700.0
        finally:
            await teardown(daemon, consumer, producer)

    asyncio.run(scenario())


def test_make_scheme_rejects_unknown_name():
    with pytest.raises(SchemeError, match="a daemon runs"):
        make_scheme("definitely-not-a-scheme")
    with pytest.raises(SchemeError):
        make_scheme("naive-threshold")  # a registry name the daemon does not run
