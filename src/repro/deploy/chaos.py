"""Chaos UDP proxy: seed-reproducible network faults for real sockets.

A :class:`ChaosUdpProxy` sits between two UDP endpoints and applies
seeded network faults to real datagrams:

* **drop** — i.i.d. per-packet loss with probability ``loss_prob``,
  drawn from a named RNG stream so a chaos schedule replays exactly from
  the root seed;
* **delay** — uniform extra latency in a configured band (per packet,
  independent per direction);
* **duplicate** — the datagram is delivered twice;
* **reorder** — the datagram is held back by an extra delay, letting
  later packets overtake it;
* **corrupt** — random bytes are flipped before delivery, exercising the
  faces' hardened decode path (corrupted packets must surface as
  ``malformed_dropped`` on the receiving face, never as a crash).

The proxy is transparent: endpoint A sends to the proxy's A-side port
and the proxy relays to B from its B-side port (and vice versa), so each
endpoint sees the proxy as its peer.  The default ``ChaosConfig()``
relays every packet untouched, immediately.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.faults.errors import FaultConfigError

Address = Tuple[str, int]

#: Extra seconds a reordered packet is held back.
REORDER_DELAY = 0.02
#: Bytes flipped per corrupted packet.
CORRUPT_BYTES = 4


@dataclass
class ChaosConfig:
    """Per-direction fault intensities (probabilities in [0, 1])."""

    #: Probability a packet is dropped.
    loss_prob: float = 0.0
    #: Extra latency band in seconds (min, max); (0, 0) = immediate relay.
    delay_range: Tuple[float, float] = (0.0, 0.0)
    duplicate_prob: float = 0.0
    #: Probability a packet is held back :data:`REORDER_DELAY` extra seconds.
    reorder_prob: float = 0.0
    #: Probability :data:`CORRUPT_BYTES` random bytes are flipped.
    corrupt_prob: float = 0.0

    def __post_init__(self) -> None:
        for label, prob in (
            ("loss_prob", self.loss_prob),
            ("duplicate_prob", self.duplicate_prob),
            ("reorder_prob", self.reorder_prob),
            ("corrupt_prob", self.corrupt_prob),
        ):
            if not 0.0 <= prob <= 1.0:
                raise FaultConfigError(f"{label} must be in [0, 1], got {prob}")
        lo, hi = self.delay_range
        # Written as a negation so a NaN fails it too.
        if not 0 <= lo <= hi < math.inf:
            raise FaultConfigError(
                "delay_range must satisfy 0 <= min <= max < inf, "
                f"got {self.delay_range}"
            )


class _ProxyEnd(asyncio.DatagramProtocol):
    """One side of the proxy: receives from its endpoint, relays across."""

    def __init__(self, proxy: "ChaosUdpProxy", side: str) -> None:
        self.proxy = proxy
        self.side = side
        self.transport: Optional[asyncio.DatagramTransport] = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, payload: bytes, addr: Address) -> None:
        self.proxy._on_packet(self.side, payload, addr)

    def error_received(self, exc: OSError) -> None:
        self.proxy.socket_errors += 1


class ChaosUdpProxy:
    """A two-port UDP relay injecting seeded faults in both directions."""

    def __init__(
        self,
        rng: np.random.Generator,
        config: Optional[ChaosConfig] = None,
        host: str = "127.0.0.1",
    ) -> None:
        self.rng = rng
        self.config = config if config is not None else ChaosConfig()
        self.host = host
        self._ends = {"a": _ProxyEnd(self, "a"), "b": _ProxyEnd(self, "b")}
        self.addr_a: Optional[Address] = None
        self.addr_b: Optional[Address] = None
        #: Learned endpoint addresses (where each side's replies go).
        self.peer_a: Optional[Address] = None
        self.peer_b: Optional[Address] = None
        self._pending: List[asyncio.TimerHandle] = []
        self.closed = False
        # Fault ledger, for assertions and the soak report.
        self.relayed = 0
        self.dropped = 0
        self.duplicated = 0
        self.reordered = 0
        self.corrupted = 0
        self.delayed = 0
        self.unroutable = 0
        self.socket_errors = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(
        self,
        peer_a: Optional[Address] = None,
        peer_b: Optional[Address] = None,
    ) -> Tuple[Address, Address]:
        """Bind both relay ports; returns (a-side addr, b-side addr).

        Endpoints may be pinned up front or learned from their first
        datagram (a consumer that only ever sends can stay unpinned on
        the far side until the producer replies).
        """
        loop = asyncio.get_running_loop()
        self.peer_a = peer_a
        self.peer_b = peer_b
        for side in ("a", "b"):
            transport, _ = await loop.create_datagram_endpoint(
                lambda side=side: self._ends[side], local_addr=(self.host, 0)
            )
            self._ends[side].transport = transport
        self.addr_a = self._ends["a"].transport.get_extra_info("sockname")[:2]
        self.addr_b = self._ends["b"].transport.get_extra_info("sockname")[:2]
        return self.addr_a, self.addr_b

    async def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        for handle in self._pending:
            handle.cancel()
        self._pending.clear()
        for end in self._ends.values():
            if end.transport is not None:
                end.transport.close()

    # ------------------------------------------------------------------
    # Relay with faults
    # ------------------------------------------------------------------
    def _on_packet(self, side: str, payload: bytes, addr: Address) -> None:
        if self.closed:
            return
        # Learn/refresh the sender's return address for this side.
        if side == "a":
            self.peer_a = addr
            out_end, out_peer = self._ends["b"], self.peer_b
        else:
            self.peer_b = addr
            out_end, out_peer = self._ends["a"], self.peer_a
        if out_peer is None:
            self.unroutable += 1
            return
        cfg = self.config
        if cfg.loss_prob > 0.0 and self.rng.random() < cfg.loss_prob:
            self.dropped += 1
            return
        if cfg.corrupt_prob > 0.0 and self.rng.random() < cfg.corrupt_prob:
            payload = self._corrupt(payload)
            self.corrupted += 1
        delay = 0.0
        lo, hi = cfg.delay_range
        if hi > 0.0:
            delay = float(self.rng.uniform(lo, hi))
            self.delayed += 1
        if cfg.reorder_prob > 0.0 and self.rng.random() < cfg.reorder_prob:
            delay += REORDER_DELAY
            self.reordered += 1
        copies = 1
        if cfg.duplicate_prob > 0.0 and self.rng.random() < cfg.duplicate_prob:
            copies = 2
            self.duplicated += 1
        for _ in range(copies):
            self._deliver(out_end, payload, out_peer, delay)

    def _deliver(
        self, end: _ProxyEnd, payload: bytes, peer: Address, delay: float
    ) -> None:
        if delay <= 0.0:
            self._send(end, payload, peer)
            return
        loop = asyncio.get_running_loop()
        handle = loop.call_later(delay, self._send, end, payload, peer)
        self._pending.append(handle)
        # Prune fired handles occasionally so the list stays bounded.
        if len(self._pending) > 256:
            self._pending = [h for h in self._pending if not h.cancelled() and h.when() > loop.time()]

    def _send(self, end: _ProxyEnd, payload: bytes, peer: Address) -> None:
        if self.closed or end.transport is None:
            return
        end.transport.sendto(payload, peer)
        self.relayed += 1

    def _corrupt(self, payload: bytes) -> bytes:
        """Flip :data:`CORRUPT_BYTES` random bytes (or junk an empty packet)."""
        if not payload:
            return b"\xff"
        mutated = bytearray(payload)
        for _ in range(CORRUPT_BYTES):
            index = int(self.rng.integers(0, len(mutated)))
            mutated[index] ^= int(self.rng.integers(1, 256))
        return bytes(mutated)

    def stats(self) -> dict:
        """Fault ledger for soak reports and test assertions."""
        return {
            "relayed": self.relayed,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "reordered": self.reordered,
            "corrupted": self.corrupted,
            "delayed": self.delayed,
            "unroutable": self.unroutable,
            "socket_errors": self.socket_errors,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ChaosUdpProxy(a={self.addr_a}, b={self.addr_b}, "
            f"relayed={self.relayed}, dropped={self.dropped})"
        )
