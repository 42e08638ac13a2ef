"""NDN TLV wire encoding for Interest and Data packets.

A compact implementation of the NDN packet format's Type-Length-Value
framing (variable-length numbers per the NDN spec: 1-byte values < 253,
then 253/254/255 prefixes for 2/4/8-byte lengths), sufficient to
round-trip this simulator's packets and to measure realistic on-wire
sizes.  Type codes follow the NDN packet spec where a field exists there
(Interest=0x05, Data=0x06, Name=0x07, GenericNameComponent=0x08,
Nonce=0x0a); simulator-specific fields (privacy bit, scope, producer id)
use the application range (>= 0x80, marked below).
"""

from __future__ import annotations

import struct
from functools import lru_cache
from math import ceil
from typing import Iterator, List, Optional, Tuple, Union

from repro.ndn.errors import NameError_, PacketError
from repro.ndn.name import Name
from repro.ndn.packets import Data, Interest, Nack

# Spec-assigned types.
TLV_INTEREST = 0x05
TLV_DATA = 0x06
TLV_NAME = 0x07
TLV_NAME_COMPONENT = 0x08
TLV_NONCE = 0x0A
TLV_INTEREST_LIFETIME = 0x0C
TLV_FRESHNESS_PERIOD = 0x19
# Application-range types for simulator-specific fields.
TLV_APP_SCOPE = 0x80
TLV_APP_PRIVATE = 0x81
TLV_APP_HOPS = 0x82
TLV_APP_PRODUCER = 0x83
TLV_APP_SIZE = 0x84
TLV_APP_EXACT_MATCH_ONLY = 0x85
# Negative acknowledgement (NDNLPv2 models this as a link-layer header;
# here it is a compact application-range top-level packet).
TLV_APP_NACK = 0x86
TLV_APP_NACK_REASON = 0x87
# Hops since the serving node (producer or cache hit); the hop-count
# field the LCD/ProbCache caching strategies read.  Omitted when 0 so
# strategy-less deployments emit byte-identical packets.
TLV_APP_ORIGIN_HOPS = 0x88

#: Wire-form memo sizes (LRU-bounded, so a flood of distinct names costs
#: re-encoding, not memory).  A name is in play while the content store or
#: the PIT holds it (a daemon's defaults: 4096 + 4096 entries); a Data is
#: re-served only from the store.
_NAME_MEMO_ENTRIES = 8192
_DATA_MEMO_ENTRIES = 4096
#: Multi-byte TLV-VAR-NUMBER prefixes -> (struct format, body width).
_VAR_NUMBER_WIDTHS = {253: ("!H", 2), 254: ("!I", 4), 255: ("!Q", 8)}


# ----------------------------------------------------------------------
# Variable-length numbers (NDN TLV-VAR-NUMBER)
# ----------------------------------------------------------------------
def encode_var_number(value: int) -> bytes:
    """Encode a TLV type or length."""
    if value < 0:
        raise PacketError(f"TLV numbers are unsigned, got {value}")
    if value < 253:
        return bytes([value])
    if value <= 0xFFFF:
        return b"\xfd" + struct.pack("!H", value)
    if value <= 0xFFFFFFFF:
        return b"\xfe" + struct.pack("!I", value)
    return b"\xff" + struct.pack("!Q", value)


def decode_var_number(buffer: bytes, offset: int) -> Tuple[int, int]:
    """Decode a TLV number at ``offset``; returns (value, next offset)."""
    if offset >= len(buffer):
        raise PacketError("truncated TLV number")
    first = buffer[offset]
    if first < 253:
        return first, offset + 1
    fmt, width = _VAR_NUMBER_WIDTHS[first]
    end = offset + 1 + width
    if end > len(buffer):
        raise PacketError("truncated TLV number body")
    return struct.unpack(fmt, buffer[offset + 1:end])[0], end


def _tlv(type_code: int, payload: bytes) -> bytes:
    length = len(payload)
    if type_code < 253 and length < 253:
        return bytes((type_code, length)) + payload
    return encode_var_number(type_code) + encode_var_number(length) + payload


def _nonneg_int_bytes(value: int) -> bytes:
    """Shortest big-endian encoding of a non-negative integer."""
    if value == 0:
        return b"\x00"
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


#: Widest integer field accepted on the wire.  Nothing legitimate encodes
#: more than 8 bytes (``_nonneg_int_bytes`` never emits more for any field
#: we produce), and unbounded widths let a hostile datagram manufacture
#: huge Python ints that overflow ``float()`` downstream.
MAX_INT_FIELD_BYTES = 8


def _decode_uint(value: bytes, what: str) -> int:
    """Big-endian unsigned integer field, width-capped."""
    if len(value) > MAX_INT_FIELD_BYTES:
        raise PacketError(
            f"{what} field is {len(value)} bytes wide (max {MAX_INT_FIELD_BYTES})"
        )
    return int.from_bytes(value, "big")


def _decode_str(value: bytes, what: str) -> str:
    """UTF-8 string field; malformed encodings are a packet error."""
    try:
        return value.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PacketError(f"{what} field is not valid UTF-8: {exc}") from None


def _read_tlv(buffer: bytes, offset: int) -> Tuple[int, bytes, int]:
    """The TLV at ``offset``: (type, value, offset of the next TLV).

    The one walker every decoder steps with; 1-byte type and length (all
    but names past 252 bytes) are read inline.
    """
    try:
        type_code = buffer[offset]
        length = buffer[offset + 1]
    except IndexError:
        raise PacketError("truncated TLV header") from None
    if type_code < 253 and length < 253:
        offset += 2
    else:
        type_code, offset = decode_var_number(buffer, offset)
        length, offset = decode_var_number(buffer, offset)
    end = offset + length
    if end > len(buffer):
        raise PacketError(f"TLV {type_code:#x} claims {length} bytes past the end")
    return type_code, buffer[offset:end], end


def iter_tlvs(buffer: bytes) -> Iterator[Tuple[int, bytes]]:
    """Yield (type, value) pairs from a TLV sequence; raises on garbage."""
    offset = 0
    while offset < len(buffer):
        type_code, value, offset = _read_tlv(buffer, offset)
        yield type_code, value


# ----------------------------------------------------------------------
# Names
# ----------------------------------------------------------------------
@lru_cache(maxsize=_NAME_MEMO_ENTRIES)
def encode_name(name: Name) -> bytes:
    """Encode a Name TLV (components as GenericNameComponent)."""
    payload = b"".join(
        _tlv(TLV_NAME_COMPONENT, component.encode("utf-8")) for component in name
    )
    return _tlv(TLV_NAME, payload)


@lru_cache(maxsize=_NAME_MEMO_ENTRIES)
def decode_name(payload: bytes) -> Name:
    """Decode the *payload* of a Name TLV.

    Every way the payload can be unusable — garbage framing, non-UTF-8
    component bytes, components the :class:`Name` invariants reject
    (empty, or containing ``/``) — surfaces as :class:`PacketError`, so
    transports can count-and-drop on one exception type.
    """
    components: List[str] = []
    offset, end = 0, len(payload)
    while offset < end:
        type_code, value, offset = _read_tlv(payload, offset)
        if type_code != TLV_NAME_COMPONENT:
            raise PacketError(f"unexpected TLV {type_code:#x} inside Name")
        components.append(_decode_str(value, "name component"))
    try:
        return Name(components)
    except NameError_ as exc:
        raise PacketError(f"invalid name on the wire: {exc}") from None


# ----------------------------------------------------------------------
# Interests
# ----------------------------------------------------------------------
def encode_interest(interest: Interest) -> bytes:
    """Encode an Interest packet to its TLV wire form."""
    body = encode_name(interest.name)
    body += _tlv(TLV_NONCE, _nonneg_int_bytes(interest.nonce))
    body += _tlv(
        TLV_INTEREST_LIFETIME, _nonneg_int_bytes(ceil(interest.lifetime))
    )
    if interest.scope is not None:
        body += _tlv(TLV_APP_SCOPE, _nonneg_int_bytes(interest.scope))
    if interest.private:
        body += _tlv(TLV_APP_PRIVATE, b"\x01")
    body += _tlv(TLV_APP_HOPS, _nonneg_int_bytes(interest.hops))
    return _tlv(TLV_INTEREST, body)


def _decode_interest_body(body: bytes) -> Interest:
    name: Optional[Name] = None
    nonce: Optional[int] = None
    lifetime = 4000.0
    scope: Optional[int] = None
    private = False
    hops = 1
    offset, end = 0, len(body)
    while offset < end:
        type_code, value, offset = _read_tlv(body, offset)
        if type_code == TLV_NAME:
            name = decode_name(value)
        elif type_code == TLV_NONCE:
            nonce = _decode_uint(value, "nonce")
        elif type_code == TLV_INTEREST_LIFETIME:
            lifetime = float(_decode_uint(value, "lifetime"))
        elif type_code == TLV_APP_SCOPE:
            scope = _decode_uint(value, "scope")
        elif type_code == TLV_APP_PRIVATE:
            private = bool(value and value[0])
        elif type_code == TLV_APP_HOPS:
            hops = _decode_uint(value, "hops")
        # Unknown fields are skipped (forward compatibility).
    if name is None or nonce is None:
        raise PacketError("Interest missing Name or Nonce")
    return Interest(
        name=name, nonce=nonce, scope=scope, private=private,
        lifetime=lifetime, hops=hops,
    )


# ----------------------------------------------------------------------
# Data
# ----------------------------------------------------------------------
@lru_cache(maxsize=_DATA_MEMO_ENTRIES)
def encode_data(data: Data) -> bytes:
    """Encode a Data packet to its TLV wire form.

    Memoized by value: a content store re-serves the same frozen object
    on every hit.  Only this encoder's output is ever stored, so what a
    peer sent (non-canonical lengths, unknown fields) is never re-emitted.
    """
    body = encode_name(data.name)
    body += _tlv(TLV_APP_PRODUCER, data.producer.encode("utf-8"))
    body += _tlv(TLV_APP_SIZE, _nonneg_int_bytes(data.size))
    if data.private:
        body += _tlv(TLV_APP_PRIVATE, b"\x01")
    if data.freshness is not None:
        body += _tlv(TLV_FRESHNESS_PERIOD, _nonneg_int_bytes(ceil(data.freshness)))
    if data.exact_match_only:
        body += _tlv(TLV_APP_EXACT_MATCH_ONLY, b"\x01")
    if data.origin_hops:
        body += _tlv(TLV_APP_ORIGIN_HOPS, _nonneg_int_bytes(data.origin_hops))
    return _tlv(TLV_DATA, body)


def _decode_data_body(body: bytes) -> Data:
    name: Optional[Name] = None
    producer = "unknown"
    size = 1024
    private = False
    freshness: Optional[float] = None
    exact_match_only = False
    origin_hops = 0
    offset, end = 0, len(body)
    while offset < end:
        type_code, value, offset = _read_tlv(body, offset)
        if type_code == TLV_NAME:
            name = decode_name(value)
        elif type_code == TLV_APP_PRODUCER:
            producer = _decode_str(value, "producer")
        elif type_code == TLV_APP_SIZE:
            size = _decode_uint(value, "size")
        elif type_code == TLV_APP_PRIVATE:
            private = bool(value and value[0])
        elif type_code == TLV_FRESHNESS_PERIOD:
            freshness = float(_decode_uint(value, "freshness"))
        elif type_code == TLV_APP_EXACT_MATCH_ONLY:
            exact_match_only = bool(value and value[0])
        elif type_code == TLV_APP_ORIGIN_HOPS:
            origin_hops = _decode_uint(value, "origin hops")
    if name is None:
        raise PacketError("Data missing Name")
    return Data(
        name=name, producer=producer, private=private, size=size,
        freshness=freshness, exact_match_only=exact_match_only,
        origin_hops=origin_hops,
    )


# ----------------------------------------------------------------------
# Nacks
# ----------------------------------------------------------------------
def encode_nack(nack: Nack) -> bytes:
    """Encode a Nack packet to its TLV wire form."""
    body = encode_name(nack.name)
    body += _tlv(TLV_NONCE, _nonneg_int_bytes(nack.nonce))
    body += _tlv(TLV_APP_NACK_REASON, nack.reason.encode("utf-8"))
    body += _tlv(TLV_APP_HOPS, _nonneg_int_bytes(nack.hops))
    return _tlv(TLV_APP_NACK, body)


def _decode_nack_body(body: bytes) -> Nack:
    name: Optional[Name] = None
    nonce = 0
    reason: Optional[str] = None
    hops = 1
    offset, end = 0, len(body)
    while offset < end:
        type_code, value, offset = _read_tlv(body, offset)
        if type_code == TLV_NAME:
            name = decode_name(value)
        elif type_code == TLV_NONCE:
            nonce = _decode_uint(value, "nonce")
        elif type_code == TLV_APP_NACK_REASON:
            reason = _decode_str(value, "nack reason")
        elif type_code == TLV_APP_HOPS:
            hops = _decode_uint(value, "hops")
    if name is None or reason is None:
        raise PacketError("Nack missing Name or Reason")
    return Nack(name=name, nonce=nonce, reason=reason, hops=hops)


# ----------------------------------------------------------------------
# Top level
# ----------------------------------------------------------------------
def encode_packet(packet: Union[Interest, Data, Nack]) -> bytes:
    """Encode any packet type."""
    if isinstance(packet, Interest):
        return encode_interest(packet)
    if isinstance(packet, Data):
        return encode_data(packet)
    if isinstance(packet, Nack):
        return encode_nack(packet)
    raise PacketError(f"cannot encode {type(packet).__name__}")


def decode_packet(buffer: bytes) -> Union[Interest, Data, Nack]:
    """Decode one packet; raises :class:`PacketError` on malformed input."""
    type_code, body, end = _read_tlv(buffer, 0)
    if end != len(buffer):
        raise PacketError("expected exactly one top-level TLV")
    if type_code == TLV_INTEREST:
        return _decode_interest_body(body)
    if type_code == TLV_DATA:
        return _decode_data_body(body)
    if type_code == TLV_APP_NACK:
        return _decode_nack_body(body)
    raise PacketError(f"unknown top-level TLV type {type_code:#x}")


def wire_size(packet: Union[Interest, Data, Nack]) -> int:
    """On-wire byte size of a packet (header only; payload is ``size``)."""
    return len(encode_packet(packet))

