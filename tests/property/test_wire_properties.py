"""Property-based round-trip and fuzz tests for the TLV wire codec."""

from __future__ import annotations

import dataclasses
from math import ceil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ndn.errors import PacketError
from repro.ndn.name import Name
from repro.ndn.packets import NACK_REASONS, Data, Interest, Nack
from repro.ndn.wire import decode_packet, encode_packet

component = st.text(
    alphabet=st.characters(blacklist_characters="/", min_codepoint=33,
                           max_codepoint=0x2FFF),
    min_size=1, max_size=20,
)
names = st.lists(component, min_size=0, max_size=6).map(Name)

interests = st.builds(
    Interest,
    name=names,
    nonce=st.integers(min_value=0, max_value=2**40),
    scope=st.one_of(st.none(), st.integers(min_value=1, max_value=16)),
    private=st.booleans(),
    lifetime=st.floats(min_value=0.0, max_value=100_000.0, exclude_min=True),
    hops=st.integers(min_value=1, max_value=32),
)

datas = st.builds(
    Data,
    name=names,
    producer=st.text(min_size=0, max_size=30),
    private=st.booleans(),
    size=st.integers(min_value=0, max_value=2**24),
    freshness=st.one_of(
        st.none(), st.floats(min_value=0.0, max_value=1e7, exclude_min=True)
    ),
    exact_match_only=st.booleans(),
    origin_hops=st.integers(min_value=0, max_value=300),
)

nacks = st.builds(
    Nack,
    name=names,
    nonce=st.integers(min_value=0, max_value=2**40),
    reason=st.sampled_from(NACK_REASONS),
    hops=st.integers(min_value=1, max_value=32),
)

packets = st.one_of(interests, datas, nacks)


def on_wire(packet):
    """``packet`` as the wire carries it: lifetime and freshness are whole
    milliseconds, rounded up."""
    if isinstance(packet, Interest):
        return dataclasses.replace(packet, lifetime=float(ceil(packet.lifetime)))
    if isinstance(packet, Data) and packet.freshness is not None:
        return dataclasses.replace(packet, freshness=float(ceil(packet.freshness)))
    return packet


@given(interests)
@settings(max_examples=300, deadline=None)
def test_interest_roundtrip(interest):
    assert decode_packet(encode_packet(interest)) == on_wire(interest)


@given(datas)
@settings(max_examples=300, deadline=None)
def test_data_roundtrip(data):
    assert decode_packet(encode_packet(data)) == on_wire(data)


@given(nacks)
@settings(max_examples=300, deadline=None)
def test_nack_roundtrip(nack):
    assert decode_packet(encode_packet(nack)) == nack


@given(packets)
@settings(max_examples=200, deadline=None)
def test_encoding_is_deterministic(packet):
    assert encode_packet(packet) == encode_packet(packet)


@given(datas)
@settings(max_examples=200, deadline=None)
def test_data_memo_is_invisible_and_not_inherited_by_copies(data):
    """encode_packet memoizes a Data's wire form; the object must read the
    same before and after, and a modified copy must get its own bytes."""
    twin = dataclasses.replace(data)  # equal fields, never encoded
    before = (hash(data), repr(data), dataclasses.asdict(data))
    wire = encode_packet(data)
    assert (hash(data), repr(data), dataclasses.asdict(data)) == before
    assert data == twin
    assert decode_packet(wire) == on_wire(data)
    hopped = dataclasses.replace(data, origin_hops=data.origin_hops + 1)
    assert encode_packet(hopped) != wire
    assert decode_packet(encode_packet(hopped)) == on_wire(hopped)
    assert encode_packet(dataclasses.replace(hopped)) == encode_packet(hopped)


@given(names)
@settings(max_examples=200, deadline=None)
def test_wire_size_monotone_in_name_length(name):
    short = Interest(name=name, nonce=1)
    longer = Interest(name=name.append("xx"), nonce=1)
    assert len(encode_packet(longer)) > len(encode_packet(short))


# ----------------------------------------------------------------------
# Fuzz hardening: hostile buffers must only ever raise PacketError.
#
# Faces drop anything raising PacketError and count it malformed; any
# other exception type would escape the `except PacketError` guard and
# kill the face's receive task.  So the contract under test is: for
# arbitrary bytes, decode_packet either returns a packet or raises
# exactly PacketError — never IndexError, ValueError, OverflowError,
# UnicodeDecodeError, or anything else.
# ----------------------------------------------------------------------
def _decode_must_be_clean(buffer: bytes) -> None:
    try:
        packet = decode_packet(buffer)
    except PacketError:
        return
    assert isinstance(packet, (Interest, Data, Nack))


@given(st.binary(min_size=0, max_size=400))
@settings(max_examples=500, deadline=None)
def test_arbitrary_bytes_never_leak_exceptions(buffer):
    _decode_must_be_clean(buffer)


@given(packets, st.data())
@settings(max_examples=300, deadline=None)
def test_truncated_valid_packets_never_leak_exceptions(packet, data):
    wire = encode_packet(packet)
    cut = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
    _decode_must_be_clean(wire[:cut])


@given(packets, st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_valid_packets_never_leak_exceptions(packet, data):
    wire = bytearray(encode_packet(packet))
    flips = data.draw(st.integers(min_value=1, max_value=8))
    for _ in range(flips):
        index = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
        wire[index] ^= data.draw(st.integers(min_value=1, max_value=255))
    _decode_must_be_clean(bytes(wire))


def test_seeded_random_buffer_sweep_never_leaks_exceptions():
    """Belt-and-braces pure-random sweep, independent of hypothesis."""
    rng = np.random.default_rng(20260808)
    for _ in range(2000):
        size = int(rng.integers(0, 300))
        _decode_must_be_clean(rng.bytes(size))


def test_seeded_mutation_sweep_never_leaks_exceptions():
    """Mutate real encodings byte-by-byte: every single-byte flip is safe."""
    rng = np.random.default_rng(42)
    packets = [
        Interest(name=Name(["a", "b"]), nonce=7, scope=2, lifetime=1000.0),
        Data(name=Name(["a", "b", "c"]), producer="p", size=512, freshness=50.0),
        Nack(name=Name(["x"]), nonce=9, reason="congestion"),
    ]
    for packet in packets:
        wire = encode_packet(packet)
        for index in range(len(wire)):
            for _ in range(4):
                mutated = bytearray(wire)
                mutated[index] ^= int(rng.integers(1, 256))
                _decode_must_be_clean(bytes(mutated))


@pytest.mark.parametrize(
    "buffer",
    [
        b"",
        b"\x05",                     # bare interest type, no length
        b"\x05\xff",                 # 8-byte length prefix, truncated
        b"\x05\x04\x07\x02\x08\xff", # name component length past end
        # Interest whose nonce field claims 9 bytes (would overflow float()
        # paths if width were uncapped).
        b"\x05\x0f\x07\x03\x08\x01a\x0a\x09" + b"\xff" * 9,
        # Data with a producer field that is invalid UTF-8.
        b"\x06\x0a\x07\x03\x08\x01a\x83\x02\xff\xfe",
        # Name component with an embedded '/' (NameError_ territory).
        b"\x05\x08\x07\x04\x08\x02a/\x0a\x01\x01",
    ],
)
def test_known_hostile_buffers_raise_packet_error_only(buffer):
    _decode_must_be_clean(buffer)
