"""Tests for the NDN TLV wire codec."""

from __future__ import annotations

import pytest

from repro.ndn.errors import PacketError
from repro.ndn.name import Name
from repro.ndn.packets import Data, Interest, Nack
from repro.ndn.wire import (
    decode_name,
    decode_packet,
    decode_var_number,
    encode_name,
    encode_packet,
    encode_var_number,
    iter_tlvs,
    wire_size,
)


class TestVarNumbers:
    @pytest.mark.parametrize("value", [0, 1, 252, 253, 254, 255, 65535,
                                       65536, 2**32 - 1, 2**32, 2**60])
    def test_roundtrip(self, value):
        encoded = encode_var_number(value)
        decoded, offset = decode_var_number(encoded, 0)
        assert decoded == value
        assert offset == len(encoded)

    def test_short_form_is_one_byte(self):
        assert len(encode_var_number(252)) == 1
        assert len(encode_var_number(253)) == 3

    def test_negative_rejected(self):
        with pytest.raises(PacketError):
            encode_var_number(-1)

    def test_truncated_rejected(self):
        with pytest.raises(PacketError):
            decode_var_number(b"", 0)
        with pytest.raises(PacketError):
            decode_var_number(b"\xfd\x01", 0)  # needs 2 more bytes


class TestNameCodec:
    @pytest.mark.parametrize("uri", ["/", "/a", "/cnn/news/2013may20",
                                     "/youtube/alice/video-749.avi/137"])
    def test_roundtrip(self, uri):
        name = Name.parse(uri)
        encoded = encode_name(name)
        tlvs = list(iter_tlvs(encoded))
        assert len(tlvs) == 1
        assert decode_name(tlvs[0][1]) == name

    def test_unicode_components(self):
        name = Name(("café", "日本"))
        tlvs = list(iter_tlvs(encode_name(name)))
        assert decode_name(tlvs[0][1]) == name

    def test_foreign_tlv_inside_name_rejected(self):
        from repro.ndn.wire import _tlv, TLV_NAME

        bogus = _tlv(0x63, b"junk")
        with pytest.raises(PacketError):
            decode_name(bogus)


class TestInterestCodec:
    def test_minimal_roundtrip(self):
        interest = Interest(name=Name.parse("/a/b"))
        decoded = decode_packet(encode_packet(interest))
        assert isinstance(decoded, Interest)
        assert decoded.name == interest.name
        assert decoded.nonce == interest.nonce
        assert decoded.scope is None
        assert not decoded.private
        assert decoded.hops == 1

    def test_full_roundtrip(self):
        interest = Interest(
            name=Name.parse("/x/y/z"), scope=2, private=True,
            lifetime=250.0, hops=3,
        )
        decoded = decode_packet(encode_packet(interest))
        assert decoded.scope == 2
        assert decoded.private
        assert decoded.lifetime == 250.0
        assert decoded.hops == 3

    @pytest.mark.parametrize("lifetime, on_wire", [(0.5, 1.0), (1.5, 2.0), (255.5, 256.0)])
    def test_fractional_lifetime_rounds_up_to_whole_ms(self, lifetime, on_wire):
        """Every constructible Interest round-trips: a sub-millisecond
        lifetime goes on the wire as 1 ms, not as the undecodable 0."""
        from repro.ndn.wire import fast_wire_size

        interest = Interest(name=Name.parse("/a"), lifetime=lifetime)
        wire = encode_packet(interest)
        assert decode_packet(wire).lifetime == on_wire
        assert fast_wire_size(interest) == len(wire)

    def test_missing_name_rejected(self):
        from repro.ndn.wire import _tlv, TLV_INTEREST, TLV_NONCE

        body = _tlv(TLV_NONCE, b"\x01")
        with pytest.raises(PacketError, match="missing Name"):
            decode_packet(_tlv(TLV_INTEREST, body))

    def test_unknown_fields_skipped(self):
        from repro.ndn.wire import _tlv, TLV_INTEREST, TLV_NAME, TLV_NONCE
        from repro.ndn.wire import encode_name as en

        body = en(Name.parse("/a")) + _tlv(TLV_NONCE, b"\x07") + _tlv(0x90, b"??")
        decoded = decode_packet(_tlv(TLV_INTEREST, body))
        assert decoded.name == Name.parse("/a")
        assert decoded.nonce == 7


class TestDataCodec:
    def test_minimal_roundtrip(self):
        data = Data(name=Name.parse("/a"))
        decoded = decode_packet(encode_packet(data))
        assert isinstance(decoded, Data)
        assert decoded == data

    def test_full_roundtrip(self):
        data = Data(
            name=Name.parse("/alice/skype/0/deadbeef"),
            producer="alice",
            private=True,
            size=4096,
            freshness=1500.0,
            exact_match_only=True,
        )
        assert decode_packet(encode_packet(data)) == data

    def test_zero_size(self):
        data = Data(name=Name.parse("/a"), size=0)
        assert decode_packet(encode_packet(data)).size == 0

    @pytest.mark.parametrize("freshness, on_wire", [(0.5, 1.0), (1.5, 2.0), (255.5, 256.0)])
    def test_fractional_freshness_rounds_up_to_whole_ms(self, freshness, on_wire):
        """A fractional freshness goes on the wire rounded up: 0.5 ms is
        1 ms, not the undecodable 0, and 1.5 ms is 2 ms, never less."""
        from repro.ndn.wire import fast_wire_size

        data = Data(name=Name.parse("/a"), freshness=freshness)
        wire = encode_packet(data)
        assert decode_packet(wire).freshness == on_wire
        assert fast_wire_size(data) == len(wire)


class TestTopLevel:
    def test_unknown_type_rejected(self):
        from repro.ndn.wire import _tlv

        with pytest.raises(PacketError, match="unknown top-level"):
            decode_packet(_tlv(0x42, b""))

    def test_trailing_garbage_rejected(self):
        encoded = encode_packet(Interest(name=Name.parse("/a")))
        with pytest.raises(PacketError):
            decode_packet(encoded + encoded)

    def test_overrun_length_rejected(self):
        encoded = bytearray(encode_packet(Interest(name=Name.parse("/a"))))
        encoded[1] += 5  # inflate the claimed length
        with pytest.raises(PacketError):
            decode_packet(bytes(encoded))

    def test_wire_size_reasonable(self):
        interest = Interest(name=Name.parse("/cnn/news"))
        assert 15 < wire_size(interest) < 60

    def test_non_packet_rejected(self):
        with pytest.raises(PacketError):
            encode_packet("not a packet")  # type: ignore[arg-type]

#: Encodings recorded at commit 876e4ae (before the single-pass walker and
#: the memoized encoders); the wire format must not move.
GOLDEN = [
    (
        Interest(name=Name.parse("/cnn/news/2013may20"), nonce=0xBEEF, scope=2,
                 private=True, lifetime=750.0, hops=3),
        "052907160803636e6e08046e6577730809323031336d617932300a02beef0c0202ee"
        "800102810101820103",
    ),
    (
        Data(name=Name.parse("/cnn/private/video/7"), producer="cnn-origin",
             private=True, size=4096, freshness=60000.0, exact_match_only=True,
             origin_hops=2),
        "063707180803636e6e0807707269766174650805766964656f080137830a636e6e2d"
        "6f726967696e840210008101011902ea60850101880102",
    ),
    (
        Nack(name=Name.parse("/a/b"), nonce=77, reason="congestion", hops=2),
        "861a07060801610801620a014d870a636f6e67657374696f6e820102",
    ),
    (
        Nack(name=Name.parse("/a/b"), nonce=77, reason="pit-full", hops=2),
        "861807060801610801620a014d87087069742d66756c6c820102",
    ),
    (
        Nack(name=Name.parse("/a/b"), nonce=77, reason="no-route", hops=2),
        "861807060801610801620a014d87086e6f2d726f757465820102",
    ),
    (
        # A 300-byte component: Name, component and Interest lengths all
        # need the 3-byte (0xfd) form.
        Interest(name=Name(["seg", "x" * 300]), nonce=1, lifetime=4000.0),
        "05fd014307fd0135080373656708fd012c" + "78" * 300 + "0a01010c020fa0820101",
    ),
]


class TestGoldenVectors:
    @pytest.mark.parametrize(
        "packet, wire_hex",
        GOLDEN,
        ids=["interest", "data", "nack-congestion", "nack-pit-full",
             "nack-no-route", "long-name"],
    )
    def test_both_directions(self, packet, wire_hex):
        wire = bytes.fromhex(wire_hex)
        assert encode_packet(packet) == wire
        assert encode_packet(packet) == wire  # the memoized answer too
        assert decode_packet(wire) == packet
        assert wire_size(packet) == len(wire)


class TestFastWireSize:
    """fast_wire_size must equal wire_size bit-for-bit on every packet
    shape — bytes_sent is an observable statistic of the simulator."""

    def test_interest_field_grid(self):
        from repro.ndn.wire import fast_wire_size

        names = [Name.parse("/"), Name.parse("/a"),
                 Name.parse("/cnn/news/2013may20"), Name(("café", "日本"))]
        # Nonces straddling every var-int byte-length boundary.
        nonces = [0, 1, 255, 256, 65535, 65536, 2**24, 2**32 - 1, 2**32]
        for name in names:
            for nonce in nonces:
                for scope in (None, 1, 2, 300):
                    for private in (False, True):
                        for hops in (1, 254, 70000):
                            packet = Interest(
                                name=name, nonce=nonce, scope=scope,
                                private=private, lifetime=4000.0, hops=hops,
                            )
                            assert fast_wire_size(packet) == wire_size(packet)

    def test_data_field_grid(self):
        from repro.ndn.wire import fast_wire_size

        for name in (Name.parse("/a/b"), Name(("日本", "x"))):
            for producer in ("p", "producer-with-longer-id", "日本"):
                for size in (0, 1, 1024, 2**20):
                    for private in (False, True):
                        for freshness in (None, 0.5, 5000.0):
                            for exact in (False, True):
                                packet = Data(
                                    name=name, producer=producer, size=size,
                                    private=private, freshness=freshness,
                                    exact_match_only=exact,
                                )
                                assert fast_wire_size(packet) == wire_size(packet)

    def test_nack_parity(self):
        from repro.ndn.packets import Nack
        from repro.ndn.wire import fast_wire_size

        for nonce in (0, 255, 256, 2**32):
            for reason in ("congestion", "no-route", "pit-full"):
                for hops in (1, 300):
                    packet = Nack(
                        name=Name.parse("/x/y"), nonce=nonce,
                        reason=reason, hops=hops,
                    )
                    assert fast_wire_size(packet) == wire_size(packet)

    def test_randomized_interests(self):
        import random

        from repro.ndn.wire import fast_wire_size

        rng = random.Random(7)
        for _ in range(300):
            depth = rng.randint(0, 5)
            name = Name(tuple(
                "c" * rng.randint(1, 12) for _ in range(depth)
            ))
            packet = Interest(
                name=name,
                nonce=rng.randrange(2**rng.choice([1, 8, 16, 32, 40])),
                scope=rng.choice([None, rng.randint(1, 500)]),
                private=rng.random() < 0.5,
                lifetime=rng.choice([0.5, 500.0, 4000.0, 1e6]),
                hops=rng.randint(1, 10**6),
            )
            assert fast_wire_size(packet) == wire_size(packet)

    def test_unsizeable_rejected(self):
        from repro.ndn.wire import fast_wire_size

        with pytest.raises(PacketError):
            fast_wire_size("not a packet")  # type: ignore[arg-type]

    def test_cache_clear_keeps_parity(self):
        from repro.ndn.wire import clear_size_caches, fast_wire_size

        packet = Interest(name=Name.parse("/clear/test"))
        first = fast_wire_size(packet)
        clear_size_caches()
        assert fast_wire_size(packet) == first == wire_size(packet)
