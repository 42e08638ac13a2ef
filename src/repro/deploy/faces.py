"""UDP faces: the simulator's Face contract over real datagram sockets.

An :class:`AsyncUdpFace` is one endpoint of a (conceptually)
point-to-point UDP association, owned by a packet handler exactly like
the simulator's :class:`~repro.ndn.link.Face` — the forwarder neither
knows nor cares which kind it holds.  Differences from the simulated
face are exactly the things a real deployment needs:

* **wire codec** — packets are encoded/decoded with
  :mod:`repro.ndn.wire`; the decode path is hardened: any datagram that
  does not parse into exactly one well-formed packet is counted
  (``malformed_dropped``) and dropped, never raised into the transport;
* **burst receive** — asyncio's datagram transport reads one datagram
  per readiness event; the face owns the socket and keeps reading until
  the kernel has no more or :data:`RX_BURST` is reached, so one loop
  iteration takes in what is queued (in arrival order) and a flooded
  face still returns to the loop for other faces, timers and mgmt;
* **inline dispatch** — each decoded packet goes to the owner inside
  the read callback, with no user-space queue or task in between; a
  flood's excess is dropped by the kernel's socket buffer, so receive
  memory stays bounded;
* **send bound** — packets are encoded and sent at once; while the
  transport already buffers more than :data:`TX_BUFFER_BYTES` (asyncio's
  datagram buffer has no limit of its own) a send is dropped and
  counted (``tx_overflow``);
* **crash isolation** — exceptions escaping the owner's packet handlers
  are counted (``handler_errors``) and logged, so one poison packet
  costs one count and the rest of its burst is still dispatched.

The face learns its peer from the first datagram when constructed
without one (producer-side listening faces); with an explicit peer,
datagrams from any other source are counted (``foreign_dropped``) and
ignored.
"""

from __future__ import annotations

import asyncio
import logging
import socket
from typing import Optional, Tuple, Union

from repro.ndn.errors import PacketError, TopologyError
from repro.ndn.link import Face
from repro.ndn.packets import Data, Interest, Nack
from repro.ndn.wire import decode_packet, encode_packet

log = logging.getLogger("repro.deploy.faces")

Address = Tuple[str, int]
Packet = Union[Interest, Data, Nack]

#: Most datagrams one readiness event takes from a socket before the
#: reader returns to the loop (fairness to other faces, timers, mgmt).
RX_BURST = 64
#: Bytes the transport may hold unsent before a send is refused.
TX_BUFFER_BYTES = 1 << 20
#: ``recvfrom`` buffer: no UDP datagram is larger.
_RECV_BYTES = 65536


class _UdpFaceProtocol(asyncio.DatagramProtocol):
    """Datagram glue: feeds received payloads to the owning face."""

    def __init__(self, face: "AsyncUdpFace") -> None:
        self.face = face

    def datagram_received(self, payload: bytes, addr: Address) -> None:
        self.face._on_readable(payload, addr)

    def error_received(self, exc: OSError) -> None:
        self.face.socket_errors += 1

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if exc is not None:
            self.face.socket_errors += 1


class AsyncUdpFace(Face):
    """A Face whose link is a UDP socket instead of a simulated Link."""

    def __init__(
        self,
        owner,
        label: str = "",
        peer: Optional[Address] = None,
        max_datagram: int = 65507,
    ) -> None:
        super().__init__(owner, label=label)
        self.peer_addr: Optional[Address] = peer
        self._peer_locked = peer is not None
        self.max_datagram = max_datagram
        self.transport: Optional[asyncio.DatagramTransport] = None
        self._sock: Optional[socket.socket] = None
        self.local_addr: Optional[Address] = None
        self.closed = False
        # Hardening / observability counters.
        self.malformed_dropped = 0
        #: No receive queue to overflow (the kernel drops a flood's
        #: excess); fixed at 0 for the ledger's drop-counter gate.
        self.rx_overflow = 0
        self.tx_overflow = 0
        self.foreign_dropped = 0
        self.handler_errors = 0
        self.socket_errors = 0
        self.oversize_dropped = 0
        self.interests_in = 0
        self.data_in = 0
        self.nacks_in = 0
        self.bytes_in = 0
        self.bytes_out = 0
        #: Reader wake-ups; datagrams per wake-up is the ratio to the
        #: packet counters.
        self.rx_bursts = 0
        #: Optional admission hook installed by the daemon: called with
        #: each decoded Interest before dispatch; returning False drops it
        #: (drain mode counts it and answers with a congestion Nack).
        self.interest_gate = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    async def create(
        cls,
        owner,
        local: Address = ("127.0.0.1", 0),
        peer: Optional[Address] = None,
        label: str = "",
    ) -> "AsyncUdpFace":
        """Bind a UDP socket at ``local`` and attach it to the loop."""
        face = cls(owner, label=label, peer=peer)
        loop = asyncio.get_running_loop()
        family = socket.AF_INET6 if ":" in local[0] else socket.AF_INET
        face._sock = sock = socket.socket(family, socket.SOCK_DGRAM)
        try:
            sock.setblocking(False)
            sock.bind(local)
            # The transport closes the socket it is handed, on close().
            face.transport, _ = await loop.create_datagram_endpoint(
                lambda: _UdpFaceProtocol(face), sock=sock
            )
        except BaseException:
            sock.close()
            raise
        face.local_addr = sock.getsockname()[:2]
        return face

    async def close(self) -> None:
        """Close the socket (idempotent)."""
        if self.closed:
            return
        self.closed = True
        if self.transport is not None:
            self.transport.close()

    def set_peer(self, peer: Address, lock: bool = True) -> None:
        """Point the face at ``peer`` (and lock out other sources)."""
        self.peer_addr = peer
        self._peer_locked = lock

    # ------------------------------------------------------------------
    # Send path (Face contract)
    # ------------------------------------------------------------------
    def send_interest(self, interest: Interest) -> None:
        self.interests_out += 1
        self._send(interest)

    def send_data(self, data: Data) -> None:
        self.data_out += 1
        self._send(data)

    def send_nack(self, nack: Nack) -> None:
        self.nacks_out += 1
        self._send(nack)

    def _send(self, packet: Packet) -> None:
        if self.closed:
            return
        if self.peer_addr is None:
            raise TopologyError(f"{self.label}: no peer address to send to")
        if self.transport.get_write_buffer_size() > TX_BUFFER_BYTES:
            self.tx_overflow += 1
            return
        try:
            payload = encode_packet(packet)
            if len(payload) > self.max_datagram:
                self.oversize_dropped += 1
                return
            self.bytes_out += len(payload)
            self.transport.sendto(payload, self.peer_addr)
        except Exception:
            self.socket_errors += 1
            log.exception("%s: send failed", self.label)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _on_readable(self, payload: bytes, addr: Address) -> None:
        """One readiness event: asyncio read ``payload``; drain what else
        the kernel has queued, in order, up to ``RX_BURST`` datagrams."""
        self.rx_bursts += 1
        self._on_datagram(payload, addr)
        recvfrom = self._sock.recvfrom
        try:
            for _ in range(RX_BURST - 1):
                self._on_datagram(*recvfrom(_RECV_BYTES))
        except BlockingIOError:
            pass
        except OSError:
            self.socket_errors += 1

    def _on_datagram(self, payload: bytes, addr: Address) -> None:
        if self._peer_locked and addr != self.peer_addr:
            self.foreign_dropped += 1
            return
        try:
            packet = decode_packet(payload)
        except PacketError:
            self.malformed_dropped += 1
            return
        if self.peer_addr is None:
            # Learn the peer from the first well-formed packet.
            self.peer_addr = addr
        self.bytes_in += len(payload)
        try:
            self._dispatch(packet)
        except Exception:
            self.handler_errors += 1
            log.exception("%s: packet handler failed", self.label)

    def _dispatch(self, packet: Packet) -> None:
        if isinstance(packet, Interest):
            self.interests_in += 1
            if self.interest_gate is not None and not self.interest_gate(
                packet, self
            ):
                return
            self.owner.receive_interest(packet, self)
        elif isinstance(packet, Data):
            self.data_in += 1
            self.owner.receive_data(packet, self)
        else:
            self.nacks_in += 1
            handler = getattr(self.owner, "receive_nack", None)
            if handler is None:
                return
            handler(packet, self)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Counter snapshot for the mgmt channel and the soak harness."""
        return {
            "label": self.label,
            "face_id": self.face_id,
            "local": list(self.local_addr) if self.local_addr else None,
            "peer": list(self.peer_addr) if self.peer_addr else None,
            "interests_in": self.interests_in,
            "data_in": self.data_in,
            "nacks_in": self.nacks_in,
            "interests_out": self.interests_out,
            "data_out": self.data_out,
            "nacks_out": self.nacks_out,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "rx_bursts": self.rx_bursts,
            "malformed_dropped": self.malformed_dropped,
            "tx_overflow": self.tx_overflow,
            "foreign_dropped": self.foreign_dropped,
            "handler_errors": self.handler_errors,
            "socket_errors": self.socket_errors,
            "oversize_dropped": self.oversize_dropped,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"AsyncUdpFace({self.label}, local={self.local_addr}, peer={self.peer_addr})"
