"""ChaosUdpProxy: seeded fault injection between real UDP endpoints."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.deploy.chaos import ChaosConfig, ChaosUdpProxy
from repro.faults.errors import FaultConfigError
from repro.faults.loss import IidLoss


class _Echo(asyncio.DatagramProtocol):
    """Endpoint that records receptions and can send."""

    def __init__(self):
        self.received = []
        self.transport = None

    def connection_made(self, transport):
        self.transport = transport

    def datagram_received(self, payload, addr):
        self.received.append(payload)


async def udp_endpoint():
    loop = asyncio.get_running_loop()
    protocol = _Echo()
    transport, _ = await loop.create_datagram_endpoint(
        lambda: protocol, local_addr=("127.0.0.1", 0)
    )
    return transport, protocol, transport.get_extra_info("sockname")[:2]


async def settle(predicate, timeout=2.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "condition never held"
        await asyncio.sleep(0.005)


def test_zero_loss_proxy_is_transparent_both_ways():
    async def scenario():
        t_a, p_a, addr_a = await udp_endpoint()
        t_b, p_b, addr_b = await udp_endpoint()
        proxy = ChaosUdpProxy(np.random.default_rng(0), ChaosConfig())
        side_a, side_b = await proxy.start(peer_a=addr_a, peer_b=addr_b)
        try:
            for i in range(10):
                t_a.sendto(b"a->b %d" % i, side_a)
            await settle(lambda: len(p_b.received) == 10)
            t_b.sendto(b"reply", side_b)
            await settle(lambda: len(p_a.received) == 1)
            stats = proxy.stats()
            assert stats["relayed"] == 11
            assert stats["dropped"] == stats["corrupted"] == 0
            assert stats["duplicated"] == stats["reordered"] == 0
        finally:
            await proxy.close()
            t_a.close()
            t_b.close()

    asyncio.run(scenario())


def test_loss_is_seeded_and_accounted():
    async def scenario():
        t_a, p_a, addr_a = await udp_endpoint()
        t_b, p_b, addr_b = await udp_endpoint()
        proxy = ChaosUdpProxy(
            np.random.default_rng(7), ChaosConfig(loss=IidLoss(0.5))
        )
        side_a, _ = await proxy.start(peer_a=addr_a, peer_b=addr_b)
        try:
            for i in range(60):
                t_a.sendto(b"x%d" % i, side_a)
            await settle(
                lambda: proxy.dropped + proxy.relayed == 60, timeout=3.0
            )
            # Same seed, same draws: the exact split is reproducible.
            assert proxy.dropped > 10 and proxy.relayed > 10
            rng = np.random.default_rng(7)
            model = IidLoss(0.5)
            drops = sum(model.drops(rng) for _ in range(60))
            assert proxy.dropped == drops
        finally:
            await proxy.close()
            t_a.close()
            t_b.close()

    asyncio.run(scenario())


def test_corrupt_duplicate_reorder_counters():
    async def scenario():
        t_a, p_a, addr_a = await udp_endpoint()
        t_b, p_b, addr_b = await udp_endpoint()
        proxy = ChaosUdpProxy(
            np.random.default_rng(3),
            ChaosConfig(corrupt_prob=1.0, duplicate_prob=1.0),
        )
        side_a, _ = await proxy.start(peer_a=addr_a, peer_b=addr_b)
        try:
            t_a.sendto(b"payload-bytes", side_a)
            await settle(lambda: len(p_b.received) == 2)
            assert proxy.corrupted == 1 and proxy.duplicated == 1
            # Duplicates carry the same (corrupted) payload.
            assert p_b.received[0] == p_b.received[1]
            assert p_b.received[0] != b"payload-bytes"
        finally:
            await proxy.close()
            t_a.close()
            t_b.close()

    asyncio.run(scenario())


def test_delay_band_defers_delivery():
    async def scenario():
        t_a, p_a, addr_a = await udp_endpoint()
        t_b, p_b, addr_b = await udp_endpoint()
        proxy = ChaosUdpProxy(
            np.random.default_rng(5),
            ChaosConfig(delay_range=(0.03, 0.05)),
        )
        side_a, _ = await proxy.start(peer_a=addr_a, peer_b=addr_b)
        try:
            loop = asyncio.get_running_loop()
            start = loop.time()
            t_a.sendto(b"slow", side_a)
            await settle(lambda: len(p_b.received) == 1)
            assert loop.time() - start >= 0.025
            assert proxy.delayed == 1
        finally:
            await proxy.close()
            t_a.close()
            t_b.close()

    asyncio.run(scenario())


def test_unpinned_side_is_unroutable_until_learned():
    async def scenario():
        t_a, p_a, addr_a = await udp_endpoint()
        t_b, p_b, addr_b = await udp_endpoint()
        proxy = ChaosUdpProxy(np.random.default_rng(0))
        side_a, side_b = await proxy.start(peer_a=addr_a)  # b unpinned
        try:
            t_a.sendto(b"nowhere to go", side_a)
            await settle(lambda: proxy.unroutable == 1)
            # b introduces itself; now a->b flows.
            t_b.sendto(b"hello from b", side_b)
            await settle(lambda: len(p_a.received) == 1)
            t_a.sendto(b"routed now", side_a)
            await settle(lambda: len(p_b.received) == 1)
        finally:
            await proxy.close()
            t_a.close()
            t_b.close()

    asyncio.run(scenario())


@pytest.mark.parametrize(
    "kwargs",
    [
        {"duplicate_prob": 1.5},
        {"reorder_prob": -0.1},
        {"corrupt_prob": 2.0},
        {"delay_range": (-0.1, 0.2)},
        {"delay_range": (0.2, 0.1)},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(FaultConfigError):
        ChaosConfig(**kwargs)
