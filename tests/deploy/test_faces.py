"""AsyncUdpFace: codec over real sockets, hardening counters, inline dispatch."""

from __future__ import annotations

import asyncio
import socket

from repro.deploy.faces import RX_BURST, TX_BUFFER_BYTES, AsyncUdpFace
from repro.ndn.name import Name
from repro.ndn.packets import Data, Interest, Nack
from repro.ndn.wire import encode_packet


class Recorder:
    """Packet handler that records everything it receives."""

    def __init__(self):
        self.interests = []
        self.data = []
        self.nacks = []

    def receive_interest(self, interest, face):
        self.interests.append(interest)

    def receive_data(self, data, face):
        self.data.append(data)

    def receive_nack(self, nack, face):
        self.nacks.append(nack)


async def face_pair(**b_kwargs):
    """Two faces pointed at each other over loopback UDP."""
    a_owner, b_owner = Recorder(), Recorder()
    a = await AsyncUdpFace.create(a_owner, label="a")
    b = await AsyncUdpFace.create(b_owner, label="b", peer=a.local_addr, **b_kwargs)
    a.set_peer(b.local_addr)
    return a, b, a_owner, b_owner


async def settle(predicate, timeout=2.0):
    """Poll until ``predicate()`` or fail the test on timeout."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "condition never held"
        await asyncio.sleep(0.005)


def test_packets_roundtrip_over_loopback():
    async def scenario():
        a, b, a_owner, b_owner = await face_pair()
        try:
            interest = Interest(name=Name.parse("/x/y"), nonce=42, lifetime=500.0)
            data = Data(name=Name.parse("/x/y"), producer="p", size=64)
            nack = Nack(name=Name.parse("/x/y"), nonce=42, reason="congestion")
            a.send_interest(interest)
            a.send_data(data)
            a.send_nack(nack)
            await settle(lambda: len(b_owner.nacks) == 1)
            assert b_owner.interests == [interest]
            assert b_owner.data == [data]
            assert b_owner.nacks == [nack]
            assert b.interests_in == 1 and b.data_in == 1 and b.nacks_in == 1
            assert a.bytes_out > 0 and b.bytes_in == a.bytes_out
        finally:
            await a.close()
            await b.close()
        # Closing again is a no-op, the owned socket is closed, and a
        # late send is dropped rather than raised.
        await a.close()
        await asyncio.sleep(0)
        assert a.closed and a._sock.fileno() == -1
        a.send_interest(interest)
        assert a.interests_out == 2 and a.bytes_out == b.bytes_in

    asyncio.run(scenario())


def test_malformed_datagrams_counted_and_dropped():
    async def scenario():
        a, b, _, b_owner = await face_pair()
        try:
            for junk in (b"", b"\xff" * 40, b"\x05\x02x", b"not-a-packet"):
                a.transport.sendto(junk, b.local_addr)
            a.send_interest(Interest(name=Name.parse("/ok")))
            await settle(lambda: len(b_owner.interests) == 1)
            # Empty datagrams may be elided by the stack; everything else
            # must land in malformed_dropped, and the face must stay up.
            assert b.malformed_dropped >= 3
            assert b.handler_errors == 0
            a.send_interest(Interest(name=Name.parse("/next")))
            await settle(lambda: len(b_owner.interests) == 2)
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def test_foreign_sender_dropped_when_peer_locked():
    async def scenario():
        a, b, _, b_owner = await face_pair()
        stranger = await AsyncUdpFace.create(Recorder(), label="stranger")
        stranger.set_peer(b.local_addr)
        try:
            stranger.send_interest(Interest(name=Name.parse("/evil")))
            a.send_interest(Interest(name=Name.parse("/ok")))
            await settle(lambda: len(b_owner.interests) == 1)
            assert b_owner.interests[0].name == Name.parse("/ok")
            assert b.foreign_dropped == 1
        finally:
            await a.close()
            await b.close()
            await stranger.close()

    asyncio.run(scenario())


def test_peer_learned_from_first_packet():
    async def scenario():
        listener_owner = Recorder()
        listener = await AsyncUdpFace.create(listener_owner, label="listen")
        caller_owner = Recorder()
        caller = await AsyncUdpFace.create(
            caller_owner, label="call", peer=listener.local_addr
        )
        try:
            caller.send_interest(Interest(name=Name.parse("/hello")))
            await settle(lambda: len(listener_owner.interests) == 1)
            assert listener.peer_addr == caller.local_addr
            # And the learned peer makes replies routable.
            listener.send_data(Data(name=Name.parse("/hello")))
            await settle(lambda: len(caller_owner.data) == 1)
        finally:
            await listener.close()
            await caller.close()

    asyncio.run(scenario())


def test_handler_exception_is_isolated():
    async def scenario():
        class Exploder(Recorder):
            def receive_interest(self, interest, face):
                raise RuntimeError("boom")

        owner = Exploder()
        target = await AsyncUdpFace.create(owner, label="t")
        src = await AsyncUdpFace.create(Recorder(), label="s", peer=target.local_addr)
        target.set_peer(src.local_addr)
        try:
            src.send_interest(Interest(name=Name.parse("/a")))
            src.send_data(Data(name=Name.parse("/b")))
            await settle(lambda: len(owner.data) == 1)
            assert target.handler_errors == 1
            # The poison packet did not stop dispatch.
            src.send_data(Data(name=Name.parse("/c")))
            await settle(lambda: len(owner.data) == 2)
        finally:
            await target.close()
            await src.close()

    asyncio.run(scenario())


def test_create_starts_no_task():
    async def scenario():
        before = asyncio.all_tasks()
        a, b, _, b_owner = await face_pair()
        try:
            assert asyncio.all_tasks() == before
            a.send_interest(Interest(name=Name.parse("/no-task")))
            await settle(lambda: len(b_owner.interests) == 1)
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def test_burst_is_dispatched_inside_the_read_callback():
    async def scenario():
        class Poisoned(Recorder):
            def receive_interest(self, interest, face):
                if interest.name == Name.parse("/burst/1"):
                    raise RuntimeError("poison")
                super().receive_interest(interest, face)

        owner = Poisoned()
        face = await AsyncUdpFace.create(owner, label="f")
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sender.bind(("127.0.0.1", 0))
            wires = [
                encode_packet(Interest(name=Name.parse(f"/burst/{i}")))
                for i in range(3)
            ]
            for wire in wires[1:]:
                sender.sendto(wire, face.local_addr)
            # Without yielding to the loop: the first datagram as asyncio
            # would hand it over; the read callback drains the other two
            # and has dispatched all three when it returns.
            face._on_readable(wires[0], sender.getsockname())
            assert [i.name for i in owner.interests] == [
                Name.parse("/burst/0"),
                Name.parse("/burst/2"),
            ]
            assert face.handler_errors == 1 and face.rx_bursts == 1
            assert face.interests_in == 3
        finally:
            sender.close()
            await face.close()

    asyncio.run(scenario())


def test_interest_gate_refuses_before_dispatch():
    async def scenario():
        a, b, _, b_owner = await face_pair()
        refused = []
        b.interest_gate = lambda interest, face: (
            refused.append(interest) or False
        )
        try:
            a.send_interest(Interest(name=Name.parse("/gated")))
            await settle(lambda: len(refused) == 1)
            await asyncio.sleep(0.02)
            assert b_owner.interests == []
            assert b.interests_in == 1  # counted, then gated
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Flood contracts: bounded send buffer, oversize drop, bounded read bursts
# ----------------------------------------------------------------------
def test_full_send_buffer_is_counted_and_nothing_sent():
    async def scenario():
        a, b, a_owner, _ = await face_pair()
        try:
            b.transport.get_write_buffer_size = lambda: TX_BUFFER_BYTES + 1
            for i in range(4):
                b.send_data(Data(name=Name.parse(f"/refused/{i}")))
            assert b.tx_overflow == 4 and b.data_out == 4 and b.bytes_out == 0
            del b.transport.get_write_buffer_size
            b.send_data(Data(name=Name.parse("/delivered")))
            await settle(lambda: len(a_owner.data) == 1)
            await asyncio.sleep(0.02)
            assert [d.name for d in a_owner.data] == [Name.parse("/delivered")]
            assert b.tx_overflow == 4
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def test_oversize_packet_dropped_and_next_goes_out():
    async def scenario():
        a, b, _, b_owner = await face_pair()
        try:
            big = Data(name=Name(["x" * 200]), producer="p")
            small = Data(name=Name.parse("/s"), producer="p")
            a.max_datagram = len(encode_packet(small))
            a.send_data(big)
            a.send_data(small)
            await settle(lambda: len(b_owner.data) == 1)
            assert b_owner.data == [small]
            assert a.oversize_dropped == 1 and a.socket_errors == 0
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def test_read_burst_is_bounded_so_other_faces_are_served():
    async def scenario():
        class Ordered(Recorder):
            def receive_interest(self, interest, face):
                self.interests.append((face.label, interest.name))

        owner = Ordered()
        flooded = await AsyncUdpFace.create(owner, label="flooded")
        quiet = await AsyncUdpFace.create(owner, label="quiet")
        flood = 3 * RX_BURST
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            # Everything is in the kernel before the loop runs again.
            for i in range(flood):
                sender.sendto(
                    encode_packet(Interest(name=Name.parse(f"/flood/{i}"))),
                    flooded.local_addr,
                )
            sender.sendto(
                encode_packet(Interest(name=Name.parse("/quiet"))), quiet.local_addr
            )
            await settle(lambda: len(owner.interests) == flood + 1)
            order = [label for label, _ in owner.interests]
            # The quiet face's packet did not wait for the flood to drain,
            # and the flood still arrived whole and in order.
            assert order.index("quiet") < flood
            assert [n for label, n in owner.interests if label == "flooded"] == [
                Name.parse(f"/flood/{i}") for i in range(flood)
            ]
            assert flooded.rx_bursts >= flood // RX_BURST
            assert quiet.rx_bursts == 1
        finally:
            sender.close()
            await flooded.close()
            await quiet.close()

    asyncio.run(scenario())
