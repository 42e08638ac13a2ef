"""NDN packet types: Interest, Data (content object), and Nack.

Interest and content are the only two packet types in the paper's NDN
model (Section II).  Interests carry no source address; the reverse path
is reconstructed from PIT state.  The fields modeled here are exactly
those the paper's attacks and countermeasures depend on:

* ``scope`` — maximum number of NDN entities (source included) an interest
  may traverse; routers may disregard it (Section III),
* ``private`` on Interest — the consumer-driven privacy bit (Section V),
* ``private`` on Data — the producer-driven privacy bit,
* ``producer`` on Data — stands in for the signature, which identifies the
  producer (Section II notes all content is signed).

:class:`Nack` extends the model with the NDNLPv2-style negative
acknowledgement used by the overload-robustness layer: a router that
cannot take on a pending interest (PIT at capacity, per-face rate limit,
no route) answers the arrival face with a Nack naming the rejected
interest and a machine-readable reason, so consumers back off through
their :class:`~repro.faults.retry.RetryPolicy` instead of blindly
retransmitting into the congestion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from math import inf
from typing import Optional

from repro.ndn.errors import PacketError
from repro.ndn.name import Name

_nonce_counter = itertools.count(1)


def _next_nonce() -> int:
    """Deterministic monotonically increasing nonce (sufficient for dedup)."""
    return next(_nonce_counter)


class _WireSize:
    """``packet.wire_size``: the TLV bytes of the packet's encoding
    (:func:`repro.ndn.wire.fast_wire_size`), computed at the first read and
    then a plain instance attribute — ``functools.cached_property`` without
    its lock.  Exact because packets are frozen: a Data crossing several
    hops as one object is sized once."""

    def __get__(self, packet, owner=None):
        if packet is None:
            return self
        size = packet.__dict__["wire_size"] = _wire.fast_wire_size(packet)
        return size


def _hop_copy(packet, hops: int):
    """``packet`` with ``hops`` replaced: a trusted copy of fields the
    constructor already validated (no ``__post_init__``, no
    ``dataclasses.replace``).

    The copy keeps the parent's memoised ``wire_size`` unless the hop
    count's TLV integer grows a byte, which happens exactly when ``hops``
    is a power of 256 (256, 65 536, ...)."""
    copy = object.__new__(type(packet))
    state = copy.__dict__
    state.update(packet.__dict__)
    state["hops"] = hops
    if hops.bit_length() % 8 == 1 and not hops & (hops - 1):
        state.pop("wire_size", None)
    return copy


@dataclass(frozen=True)
class Interest:
    """A request for content by name (the NDN pull model).

    Attributes:
        name: the requested content name (prefix match against content).
        nonce: loop/duplicate detection token.
        scope: max NDN entities the interest may traverse, source included;
            None means unlimited.  ``scope=2`` confines the interest to the
            first-hop router — the probing trick of Section III.
        private: consumer-driven privacy bit (Section V).
        lifetime: PIT entry lifetime in ms.
        hops: how many NDN entities have handled this interest so far,
            source included.  Incremented on each forward; compared against
            ``scope`` by scope-honoring routers.
    """

    name: Name
    nonce: int = field(default_factory=_next_nonce)
    scope: Optional[int] = None
    private: bool = False
    lifetime: float = 4000.0
    hops: int = 1

    def __post_init__(self) -> None:
        if self.scope is not None and self.scope < 1:
            raise PacketError(f"interest scope must be >= 1, got {self.scope}")
        if not 0 < self.lifetime < inf:  # NaN fails this too
            raise PacketError(
                f"interest lifetime must be > 0 and finite, got {self.lifetime}"
            )
        if self.hops < 1:
            raise PacketError(f"interest hops must be >= 1, got {self.hops}")

    wire_size = _WireSize()

    def hop(self) -> "Interest":
        """Return a copy with the hop count incremented (same nonce)."""
        return _hop_copy(self, self.hops + 1)

    @property
    def scope_exhausted(self) -> bool:
        """True when a scope-honoring entity must not forward this interest.

        The receiving entity's position in the traversal is ``hops + 1``
        (``hops`` counts entities that handled the interest before this
        transmission, source included).  Forwarding would place the packet
        at entity ``hops + 2``, which must not exceed ``scope``.  With
        ``scope=2`` the first-hop router may answer from its cache but may
        not forward — the probing configuration of Section III.
        """
        return self.scope is not None and self.hops >= self.scope - 1

    def __str__(self) -> str:
        extras = []
        if self.scope is not None:
            extras.append(f"scope={self.scope}")
        if self.private:
            extras.append("private")
        suffix = f" [{', '.join(extras)}]" if extras else ""
        return f"Interest({self.name}{suffix})"


@dataclass(frozen=True)
class Data:
    """A content object.

    Attributes:
        name: the full content name (interests match it by prefix).
        producer: identifier of the signing producer; stands in for the
            signature that, per the paper, lets anyone identify the producer.
        private: producer-driven privacy bit (Section V).
        size: payload size in bytes (all-equal by default, as in Section VII).
        freshness: advisory cache lifetime in ms; None means no limit.
        exact_match_only: if True, caches must not return this object for
            interests that are a strict prefix of its name.  This implements
            footnote 5 of the paper: content whose name ends in an
            unpredictable ``rand`` component must only satisfy interests that
            explicitly express that component.
        origin_hops: NDN hops traversed since the node that *served* this
            copy (producer or cache hit), 0 at the serving node.  Maintained
            by forwarders only when a hop-counting caching strategy (LCD,
            ProbCache — see :mod:`repro.ndn.strategy`) is installed; stays 0
            otherwise, and is then omitted from the wire encoding so
            strategy-less deployments are byte-identical to older builds.
    """

    name: Name
    producer: str = "unknown"
    private: bool = False
    size: int = 1024
    freshness: Optional[float] = None
    exact_match_only: bool = False
    origin_hops: int = 0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise PacketError(f"content size must be >= 0, got {self.size}")
        if self.freshness is not None and not 0 < self.freshness < inf:
            raise PacketError(
                f"content freshness must be > 0 and finite, got {self.freshness}"
            )
        if self.origin_hops < 0:
            raise PacketError(
                f"content origin_hops must be >= 0, got {self.origin_hops}"
            )

    wire_size = _WireSize()

    def hop(self) -> "Data":
        """Return a copy with the origin hop count incremented (sized
        afresh: ``dataclasses.replace`` copies fields only)."""
        return replace(self, origin_hops=self.origin_hops + 1)

    def at_origin(self) -> "Data":
        """Return this object with ``origin_hops`` reset to 0 (the form a
        serving node emits); returns ``self`` when already at 0."""
        if self.origin_hops == 0:
            return self
        return replace(self, origin_hops=0)

    @property
    def effectively_private(self) -> bool:
        """Producer-marked private via the bit or the reserved name component."""
        return self.private or self.name.marked_private

    def satisfies(self, interest: Interest) -> bool:
        """True iff this content object satisfies ``interest`` (prefix rule)."""
        return interest.name.is_prefix_of(self.name)

    def __str__(self) -> str:
        marker = " [private]" if self.private else ""
        return f"Data({self.name}, producer={self.producer}{marker})"


# ----------------------------------------------------------------------
# Negative acknowledgements
# ----------------------------------------------------------------------
#: The router's PIT (or a per-face rate limiter) refused the interest.
NACK_CONGESTION = "congestion"
#: The router's PIT was at capacity and the overflow policy rejected or
#: preempted the entry.
NACK_PIT_FULL = "pit-full"
#: No FIB next hop for the interest's name.
NACK_NO_ROUTE = "no-route"

NACK_REASONS = (NACK_CONGESTION, NACK_PIT_FULL, NACK_NO_ROUTE)


@dataclass(frozen=True)
class Nack:
    """A negative acknowledgement for one rejected interest.

    Travels downstream along the reverse path the interest took (like
    Data, matched against PIT state) and names the interest it rejects.
    ``reason`` is machine-readable so consumers can distinguish
    congestion (back off, retry later) from no-route (retrying is
    pointless until topology changes).
    """

    name: Name
    nonce: int = 0
    reason: str = NACK_CONGESTION
    hops: int = 1

    def __post_init__(self) -> None:
        if self.reason not in NACK_REASONS:
            raise PacketError(
                f"unknown nack reason {self.reason!r}; choose from {NACK_REASONS}"
            )
        if self.hops < 1:
            raise PacketError(f"nack hops must be >= 1, got {self.hops}")

    @classmethod
    def for_interest(cls, interest: Interest, reason: str) -> "Nack":
        """The Nack rejecting ``interest`` (same name and nonce)."""
        return cls(name=interest.name, nonce=interest.nonce, reason=reason)

    wire_size = _WireSize()

    def hop(self) -> "Nack":
        """Return a copy with the hop count incremented (same nonce)."""
        return _hop_copy(self, self.hops + 1)

    def __str__(self) -> str:
        return f"Nack({self.name}, reason={self.reason})"


# Last: ``wire`` imports this module's classes.
from repro.ndn import wire as _wire  # noqa: E402
