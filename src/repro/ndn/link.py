"""Faces and links: the wiring between NDN entities.

A :class:`Face` is one endpoint of a point-to-point :class:`Link`.  Each
face is owned by a packet handler (a forwarder or an application) exposing
``receive_interest(interest, face)`` and ``receive_data(data, face)``.

Links apply a :class:`DelayModel` per packet plus an optional i.i.d. loss
probability.  Delay models are where the Figure-3 topologies get their
character: a near-deterministic Fast-Ethernet LAN, a jittery multi-hop WAN,
and a microsecond-scale local host (app ↔ local daemon).

Links also carry the fault-injection surface used by
:mod:`repro.faults`: an up/down state (:meth:`Link.set_down` /
:meth:`Link.set_up`), a stack of installable :class:`~repro.faults.loss.LossModel`
instances for burst-loss episodes, and an additive delay component for
congestion spikes — each with its own drop/usage accounting so
experiments can attribute every lost packet to a cause.
"""

from __future__ import annotations

import abc
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Protocol, runtime_checkable

import numpy as np

from repro.ndn.errors import TopologyError
from repro.ndn.packets import Data, Interest, Nack
from repro.ndn.wire import fast_wire_size
from repro.sim.rng import Stream, as_generator

if TYPE_CHECKING:  # typing only: keep ndn importable without repro.faults
    from repro.faults.loss import LossModel


@runtime_checkable
class PacketHandler(Protocol):
    """Anything that can own a face: forwarders, consumers, producers."""

    def receive_interest(self, interest: Interest, face: "Face") -> None:
        """Handle an interest arriving on ``face``."""

    def receive_data(self, data: Data, face: "Face") -> None:
        """Handle a content object arriving on ``face``."""

    # ``receive_nack(nack, face)`` is an *optional* extension of this
    # protocol: handlers that predate the overload-robustness layer need
    # not implement it.  Links deliver Nacks only to handlers that do
    # (and count the rest as ``nacks_unhandled``), so legacy stubs keep
    # working unchanged.


class DelayModel(abc.ABC):
    """Samples per-packet one-way propagation+processing delay (ms)."""

    #: ``False`` when :meth:`sample` never touches its generator; a link
    #: then passes ``None`` and never builds its stream for delays.
    draws = True

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """Draw one delay in milliseconds (always >= 0)."""

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """Expected delay in milliseconds (used for calibration/reporting)."""


class FixedDelay(DelayModel):
    """Deterministic delay — ideal links and unit tests."""

    draws = False

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise TopologyError(f"delay must be >= 0, got {delay}")
        self._delay = delay

    def sample(self, rng: Optional[np.random.Generator]) -> float:
        return self._delay

    @property
    def mean(self) -> float:
        return self._delay


class GaussianJitterDelay(DelayModel):
    """Base delay plus truncated-Gaussian jitter.

    Models switched LAN segments: tight, symmetric jitter around a small
    base delay.  Samples are clamped at ``floor`` (propagation cannot go
    below the physical minimum).
    """

    def __init__(self, base: float, jitter_std: float, floor: Optional[float] = None) -> None:
        if base < 0 or jitter_std < 0:
            raise TopologyError("base and jitter_std must be >= 0")
        self._base = base
        self._std = jitter_std
        self._floor = floor if floor is not None else max(0.0, base - 3 * jitter_std)

    def sample(self, rng: np.random.Generator) -> float:
        return max(self._floor, self._base + rng.normal(0.0, self._std))

    @property
    def mean(self) -> float:
        return self._base


class LogNormalDelay(DelayModel):
    """Base delay plus log-normal queueing tail.

    Models WAN paths: the minimum is the propagation delay and occasional
    large positive excursions come from queueing — the long right tails
    visible in Figure 3(b)/(c).
    """

    def __init__(self, base: float, tail_scale: float, sigma: float = 0.8) -> None:
        if base < 0 or tail_scale < 0 or sigma <= 0:
            raise TopologyError("invalid LogNormalDelay parameters")
        self._base = base
        self._scale = tail_scale
        self._sigma = sigma

    def sample(self, rng: np.random.Generator) -> float:
        return self._base + self._scale * rng.lognormal(0.0, self._sigma)

    @property
    def mean(self) -> float:
        import math

        return self._base + self._scale * math.exp(self._sigma**2 / 2)


class Face:
    """One endpoint of a link, owned by a packet handler."""

    _counter = 0

    def __init__(self, owner: PacketHandler, label: str = "") -> None:
        self.owner = owner
        Face._counter += 1
        self.face_id = Face._counter
        self.label = label or f"face-{self.face_id}"
        self.link: Optional[Link] = None
        self.interests_out = 0
        self.data_out = 0
        self.nacks_out = 0

    def send_interest(self, interest: Interest) -> None:
        """Transmit an interest toward the peer endpoint."""
        if self.link is None:
            raise TopologyError(f"{self.label} is not attached to a link")
        self.interests_out += 1
        self.link.transmit(interest, self)

    def send_data(self, data: Data) -> None:
        """Transmit a content object toward the peer endpoint."""
        if self.link is None:
            raise TopologyError(f"{self.label} is not attached to a link")
        self.data_out += 1
        self.link.transmit(data, self)

    def send_nack(self, nack: Nack) -> None:
        """Transmit a negative acknowledgement toward the peer endpoint."""
        if self.link is None:
            raise TopologyError(f"{self.label} is not attached to a link")
        self.nacks_out += 1
        self.link.transmit(nack, self)

    @property
    def peer(self) -> "Face":
        """The face at the other end of the attached link."""
        if self.link is None:
            raise TopologyError(f"{self.label} is not attached to a link")
        return self.link.other_end(self)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Face({self.label})"


class Link:
    """A bidirectional point-to-point link with delay, loss, and faults.

    ``loss_rate == 1.0`` is legal and models a blackhole link — exactly
    what fault-injection tests need.  ``loss_model`` installs a stateful
    model (e.g. Gilbert–Elliott burst loss) *instead of* the i.i.d.
    ``loss_rate``; fault windows may push further models on top of it at
    runtime (:meth:`push_loss_model`).

    ``rng`` may be a :class:`~repro.sim.rng.LazyStream`: the link builds
    its generator at its first draw, so a fixed-delay link that loses
    nothing never builds one.
    """

    def __init__(
        self,
        engine,
        face_a: Face,
        face_b: Face,
        delay_model: DelayModel,
        rng: Stream,
        loss_rate: float = 0.0,
        loss_model: Optional["LossModel"] = None,
        name: str = "",
    ) -> None:
        if not 0.0 <= loss_rate <= 1.0:
            raise TopologyError(f"loss_rate must be in [0, 1], got {loss_rate}")
        if loss_model is not None and loss_rate > 0.0:
            raise TopologyError(
                "give either loss_rate or loss_model, not both "
                f"(loss_rate={loss_rate}, loss_model={loss_model!r})"
            )
        if face_a.link is not None or face_b.link is not None:
            raise TopologyError("face already attached to a link")
        self.engine = engine
        self.face_a = face_a
        self.face_b = face_b
        self.delay_model = delay_model
        self._stream = rng
        self.loss_rate = loss_rate
        self.name = name or f"{face_a.label}<->{face_b.label}"
        face_a.link = self
        face_b.link = self
        self.packets_sent = 0
        self.packets_lost = 0
        self.bytes_sent = 0
        #: Nacks addressed to a handler lacking ``receive_nack``.
        self.nacks_unhandled = 0
        # Fault-injection state (see repro.faults).
        self.up = True
        self.extra_delay = 0.0
        self.packets_dropped_down = 0
        self.down_windows = 0
        self._loss_models: list = [loss_model] if loss_model is not None else []

    @cached_property
    def rng(self) -> np.random.Generator:
        """The link's generator, built at its first read (then a plain
        attribute)."""
        return as_generator(self._stream)

    # ------------------------------------------------------------------
    # Fault-injection surface
    # ------------------------------------------------------------------
    def set_down(self) -> None:
        """Take the link down: every packet is dropped (both directions)."""
        if self.up:
            self.up = False
            self.down_windows += 1

    def set_up(self) -> None:
        """Restore the link."""
        self.up = True

    @property
    def loss_model(self) -> Optional["LossModel"]:
        """The active loss model (top of the stack), if any."""
        return self._loss_models[-1] if self._loss_models else None

    def push_loss_model(self, model: "LossModel") -> None:
        """Install ``model`` on top of the current loss behavior."""
        self._loss_models.append(model)

    def pop_loss_model(self, model: Optional["LossModel"] = None) -> None:
        """Remove the active loss model (must be ``model`` when given)."""
        if not self._loss_models:
            raise TopologyError(f"{self.name}: no loss model to remove")
        if model is not None and self._loss_models[-1] is not model:
            raise TopologyError(
                f"{self.name}: active loss model is not the one being removed"
            )
        self._loss_models.pop()

    def add_extra_delay(self, extra: float) -> None:
        """Add a per-packet delay component (congestion spike)."""
        if extra < 0:
            raise TopologyError(f"extra delay must be >= 0, got {extra}")
        self.extra_delay += extra

    def remove_extra_delay(self, extra: float) -> None:
        """Remove a previously added delay component."""
        self.extra_delay = max(0.0, self.extra_delay - extra)

    def other_end(self, face: Face) -> Face:
        """The opposite endpoint of ``face``."""
        if face is self.face_a:
            return self.face_b
        if face is self.face_b:
            return self.face_a
        raise TopologyError(f"{face.label} is not an endpoint of {self.name}")

    def transmit(self, packet, from_face: Face) -> None:
        """Deliver ``packet`` to the opposite endpoint after a sampled delay.

        The per-hop fast path: sizes come from the memoized arithmetic
        :func:`~repro.ndn.wire.fast_wire_size` (no encoding), and delivery
        rides the engine's fire-and-forget lane (deliveries are never
        cancelled), so a forwarded packet allocates no :class:`Event`.
        """
        if from_face is self.face_a:
            to_face = self.face_b
        elif from_face is self.face_b:
            to_face = self.face_a
        else:
            raise TopologyError(
                f"{from_face.label} is not an endpoint of {self.name}"
            )
        if not isinstance(packet, (Interest, Data, Nack)):
            raise TopologyError(f"unknown packet type {type(packet).__name__}")
        self.packets_sent += 1
        self.bytes_sent += self._packet_bytes(packet)
        if not self.up:
            self.packets_dropped_down += 1
            return
        if self._loss_models:
            if self._loss_models[-1].drops(self.rng):
                self.packets_lost += 1
                return
        elif self.loss_rate > 0.0 and self.rng.random() < self.loss_rate:
            self.packets_lost += 1
            return
        model = self.delay_model
        delay = model.sample(self.rng if model.draws else None) + self.extra_delay
        if isinstance(packet, Interest):
            self.engine.schedule_fire_and_forget(
                delay, to_face.owner.receive_interest, packet, to_face
            )
        elif isinstance(packet, Data):
            self.engine.schedule_fire_and_forget(
                delay, to_face.owner.receive_data, packet, to_face
            )
        else:
            handler = getattr(to_face.owner, "receive_nack", None)
            if handler is None:
                # Pre-Nack handler (legacy stubs, producers without the
                # method): the Nack is dropped at the link, visibly.
                self.nacks_unhandled += 1
                return
            self.engine.schedule_fire_and_forget(delay, handler, packet, to_face)

    @staticmethod
    def _packet_bytes(packet) -> int:
        """On-wire bytes: TLV header plus, for Data, the payload size."""
        total = fast_wire_size(packet)
        if isinstance(packet, Data):
            total += packet.size
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Link({self.name})"
