"""``Link.bytes_sent`` stays exact under the per-packet size memo.

A packet's TLV size is computed at its first transmission and memoised on
the packet; an Interest or Nack hop copy inherits it unless the hop
count's encoded length changes.  Each case below runs a multi-hop network
with every transmission captured, and every link's ``bytes_sent`` must
equal the encoded length of the packets it carried (plus each Data's
payload), encoded afresh here:

* a tree under LCD, so forwarders send ``Data.hop()`` and
  ``Data.at_origin()`` copies;
* a bounded PIT that Nacks, so forwarders send ``Nack.hop()`` copies;
* a chain crossed by a scoped, private Interest whose hop count goes
  255 → 256, where its hop-count TLV grows a byte.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.ndn.link import FixedDelay, Link
from repro.ndn.name import Name
from repro.ndn.network import Network
from repro.ndn.packets import Data, Interest, Nack
from repro.ndn.wire import encode_packet
from repro.sim.process import Timeout
from repro.sim.rng import RngRegistry


def _lcd_tree() -> Network:
    net = Network(rng=RngRegistry(3))
    for router in ("R0", "R1", "R2"):
        net.add_router(router, capacity=4, caching="lcd")
    net.add_producer("P", "/p")
    for consumer, edge in (("U1", "R1"), ("U2", "R1"), ("U3", "R2")):
        net.add_consumer(consumer)
        net.connect(consumer, edge, FixedDelay(0.5))
    net.connect("R1", "R0", FixedDelay(2.0))
    net.connect("R2", "R0", FixedDelay(2.0))
    net.connect("R0", "P", FixedDelay(1.0))
    for edge in ("R1", "R2"):
        net.add_route(edge, "/p", "R0")
    net.add_route("R0", "/p", "P")

    def fetcher(consumer, offset):
        for i in range(24):
            yield from consumer.fetch(f"/p/obj-{(i * 5 + offset) % 7}")
            yield Timeout(3.0)

    for offset, consumer in enumerate(("U1", "U2", "U3")):
        net.spawn(fetcher(net[consumer], offset))
    return net


def _bounded_pit() -> Network:
    net = Network(rng=RngRegistry(5))
    net.add_router("R1", pit_capacity=3, pit_overflow="evict-oldest-expiry")
    net.add_router("R0", pit_capacity=1)
    net.add_consumer("U")
    net.add_producer("P", "/p", processing_delay=5.0)
    net.connect("U", "R1", FixedDelay(0.5))
    net.connect("R1", "R0", FixedDelay(1.0))
    net.connect("R0", "P", FixedDelay(1.0))
    net.add_route("R1", "/p", "R0")
    net.add_route("R0", "/p", "P")
    consumer = net["U"]
    for i in range(6):
        net.engine.schedule(0.1 * i, consumer.express_interest, f"/p/burst-{i}")
    return net


def _hop_count_chain() -> Network:
    net = Network(rng=RngRegistry(7))
    routers = [f"R{i}" for i in range(10)]
    for router in routers:
        net.add_router(router)
    net.add_consumer("U")
    net.add_producer("P", "/p")
    path = ["U", *routers, "P"]
    for a, b in zip(path, path[1:]):
        net.connect(a, b, FixedDelay(1.0))
    net.add_route_chain("/p", *path)
    # Hops 250 at the first router: the sixth forwards hops=256.
    interest = Interest(
        Name.parse("/p/deep"), scope=1000, private=True, hops=250
    )
    net.engine.schedule(0.0, net["U"].face.send_interest, interest)
    return net


CASES = {
    "lcd-tree": _lcd_tree,
    "bounded-pit": _bounded_pit,
    "hop-chain": _hop_count_chain,
}


#: Every case is also checked paused mid-run (``run(until=PAUSE)``):
#: bytes are counted at transmission, so in-flight packets count too.
PAUSE = 10.0


def byte_mismatches(monkeypatch, build):
    """``{(stage, link name): (bytes_sent, expected)}`` for every inexact
    link, at the pause and at the end, plus the packets the run carried.
    A pause the engine overran is reported as ``(stage, "clock")``."""
    carried = []
    transmit = Link.transmit

    def recording(link, packet, from_face):
        carried.append((link, packet))
        transmit(link, packet, from_face)

    monkeypatch.setattr(Link, "transmit", recording)
    net = build()
    bad = {}
    for stage, until in (("pause", PAUSE), ("end", None)):
        stop = net.run(until=until)
        if until is not None and stop != until:
            bad[stage, "clock"] = (stop, until)
        expected = Counter()
        for link, packet in carried:
            expected[link.name] += len(encode_packet(packet))
            if isinstance(packet, Data):
                expected[link.name] += packet.size
        for name, link in net.links.items():
            if link.bytes_sent != expected[name]:
                bad[stage, name] = (link.bytes_sent, expected[name])
    monkeypatch.setattr(Link, "transmit", transmit)
    return bad, [packet for _, packet in carried]


@pytest.mark.parametrize("case", sorted(CASES))
def test_bytes_sent_equals_encoded_bytes(case, monkeypatch):
    bad, packets = byte_mismatches(monkeypatch, CASES[case])
    assert bad == {}
    # Each case exercises the copies it is named for.
    if case == "lcd-tree":
        assert any(isinstance(p, Data) and p.origin_hops for p in packets)
    elif case == "bounded-pit":
        assert any(isinstance(p, Nack) and p.hops > 1 for p in packets)
    else:
        hops = {p.hops for p in packets if isinstance(p, Interest)}
        assert {255, 256} <= hops


def test_hop_copy_keeps_the_size_until_the_hop_count_grows():
    interest = Interest(Name.parse("/p/x"), scope=300, private=True, hops=254)
    size = interest.wire_size
    at_255 = interest.hop()
    assert "wire_size" in vars(at_255) and at_255.wire_size == size
    at_256 = at_255.hop()
    assert "wire_size" not in vars(at_256)
    assert at_256.wire_size == size + 1 == len(encode_packet(at_256))
    # The copy is the constructor's object, fields and all.
    assert at_256 == Interest(
        Name.parse("/p/x"), nonce=interest.nonce, scope=300, private=True, hops=256
    )
    nack = Nack(Name.parse("/p/x"), nonce=9, hops=255)
    assert nack.wire_size + 1 == nack.hop().wire_size == len(encode_packet(nack.hop()))
