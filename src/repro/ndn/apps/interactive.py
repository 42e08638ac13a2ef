"""Interactive (VoIP-like) endpoints using unpredictable names (Section V-A).

Each endpoint of an interactive session is producer *and* consumer at once:
it publishes its own frames under per-frame unpredictable names and fetches
the peer's frames by predicting their names from the shared secret.  Frames
are published ``exact_match_only`` per footnote 5, so a router never leaks
them to prefix probes.  The endpoint is a
:class:`~repro.ndn.apps.consumer.Consumer`: each frame is fetched through
the consumer's one fetch loop, so its pending records, Nack matching,
timeouts and retransmissions (and their ``fetch_*`` counters) are the
consumer's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # avoid a runtime ndn->naming->ndn import cycle
    from repro.naming.session import SessionNamer

from repro.faults.retry import RetryPolicy
from repro.ndn.apps.consumer import Consumer
from repro.ndn.link import Face
from repro.ndn.name import Name
from repro.ndn.packets import Data, Interest
from repro.sim.engine import Engine
from repro.sim.monitor import Monitor
from repro.sim.process import Timeout


@dataclass(frozen=True)
class FrameStats:
    """Per-frame delivery outcome for one endpoint."""

    sequence: int
    latency: float
    retransmitted: bool


class InteractiveEndpoint(Consumer):
    """One party of a two-way interactive session over NDN."""

    def __init__(
        self,
        engine: Engine,
        namer: SessionNamer,
        label: str = "endpoint",
        frame_size: int = 256,
        monitor: Optional[Monitor] = None,
    ) -> None:
        super().__init__(engine, name=label, monitor=monitor)
        self.namer = namer
        self.label = label
        self.frame_size = frame_size
        self.repo: Dict[Name, Data] = {}
        self.frame_stats: List[FrameStats] = []

    # ------------------------------------------------------------------
    # Producing
    # ------------------------------------------------------------------
    def publish_frame(self, sequence: int) -> Data:
        """Publish the outgoing frame ``sequence`` under its session name."""
        name = self.namer.outgoing_name(sequence)
        data = Data(
            name=name,
            producer=self.label,
            private=True,
            size=self.frame_size,
            exact_match_only=True,
        )
        self.repo[name] = data
        self.monitor.count("frames_published")
        return data

    # ------------------------------------------------------------------
    # Consuming
    # ------------------------------------------------------------------
    def run_session(
        self,
        frames: int,
        frame_interval: float,
        retransmit_timeout: float = 200.0,
        max_retransmits: int = 3,
    ):
        """Coroutine: publish and fetch ``frames`` frames at a fixed cadence.

        A frame not answered within ``retransmit_timeout`` (or Nacked) is
        re-requested up to ``max_retransmits`` times; the re-issued
        interest is what benefits from router caching near the loss point
        (the paper's rationale for caching interactive traffic at all).
        A frame's latency runs from its first send.
        """
        retry = RetryPolicy(
            retries=max_retransmits, timeout=retransmit_timeout, backoff=1.0
        )
        for seq in range(frames):
            self.publish_frame(seq)
            send_time = self.engine.now
            result = yield from self.fetch(
                self.namer.incoming_name(seq),
                private=True,
                lifetime=4 * retransmit_timeout,
                retry=retry,
            )
            if result is None:
                self.monitor.count("frames_lost")
            else:
                self.frame_stats.append(
                    FrameStats(
                        sequence=seq,
                        latency=self.engine.now - send_time,
                        retransmitted=result.send_time != send_time,
                    )
                )
            yield Timeout(frame_interval)
        return self.frame_stats

    # ------------------------------------------------------------------
    # PacketHandler interface
    # ------------------------------------------------------------------
    def receive_interest(self, interest: Interest, face: Face) -> None:
        """Serve own frames; exact name match only (footnote 5)."""
        data = self.repo.get(interest.name)
        if data is None:
            self.monitor.count("unknown_interest")
            return
        self.monitor.count("frames_served")
        face.send_data(data)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"InteractiveEndpoint({self.label}, frames={len(self.frame_stats)})"
