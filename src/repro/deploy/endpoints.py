"""Socket-side applications: the simulator's, bound to UDP faces.

:class:`AsyncConsumer` holds a :class:`~repro.ndn.apps.consumer.Consumer`
and :class:`AsyncProducer` a :class:`~repro.ndn.apps.producer.Producer`
on the daemon's :class:`~repro.deploy.clock.RealTimeEngine`; the
packet-handler contract is identical, so only the wiring is new (PiCN's
pattern: one application over a simulated bus or a UDP port).  A fetch
awaits the consumer's one fetch loop, which decides every retry, Nack and
deadline and counts them in the consumer's monitor.
"""

from __future__ import annotations

import asyncio
from functools import partial
from typing import Optional, Union

import numpy as np

from repro.deploy.clock import RealTimeEngine
from repro.deploy.faces import Address, AsyncUdpFace
from repro.faults.retry import RetryPolicy
from repro.ndn.apps.consumer import Consumer, FetchResult
from repro.ndn.apps.producer import Producer
from repro.ndn.name import Name
from repro.sim.monitor import Monitor


class FetchFailed(Exception):
    """A fetch exhausted its retry budget or deadline."""

    def __init__(self, name: Name, reason: str, attempts: int) -> None:
        self.name = name
        self.reason = reason
        self.attempts = attempts
        super().__init__(f"fetch {name} failed ({reason}) after {attempts} attempt(s)")


def _resolve(future: asyncio.Future, outcome: Optional[FetchResult]) -> None:
    """Complete a fetch's future, unless its awaiter was cancelled."""
    if not future.done():
        future.set_result(outcome)


class AsyncConsumer:
    """An end host requesting content over a UDP face: the face dispatches
    into the wrapped :class:`Consumer`, whose interests go to the socket."""

    def __init__(self, engine: RealTimeEngine, name: str = "consumer") -> None:
        self.consumer = Consumer(engine, name=name)
        self.face: Optional[AsyncUdpFace] = None

    async def attach(
        self,
        local: Address = ("127.0.0.1", 0),
        peer: Optional[Address] = None,
        label: str = "",
    ) -> AsyncUdpFace:
        """Bind the consumer's (single) upstream UDP face."""
        self.face = await AsyncUdpFace.create(
            self.consumer,
            local=local,
            peer=peer,
            label=label or f"{self.consumer.name}:face",
        )
        self.consumer.face = self.face
        return self.face

    async def close(self) -> None:
        if self.face is not None:
            await self.face.close()

    async def fetch(
        self,
        name: Union[str, Name],
        scope: Optional[int] = None,
        private: bool = False,
        deadline: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> FetchResult:
        """Fetch ``name``; raises :class:`FetchFailed` on exhaustion.

        ``deadline`` (engine ms) is the overall budget across all
        attempts; it defaults to the policy's total worst-case wait
        (:meth:`~repro.faults.retry.RetryPolicy.total_budget`) and is
        propagated down the path as each interest's lifetime.  If the
        awaiting task is cancelled, the fetch is abandoned.
        """
        if retry is None:
            retry = RetryPolicy(retries=0, timeout=1000.0, backoff=1.0)
        if deadline is None:
            deadline = retry.total_budget()
        future = asyncio.get_running_loop().create_future()
        fetch = self.consumer.start_fetch(
            name, partial(_resolve, future), scope, private,
            retry=retry, rng=rng, deadline=deadline,
        )
        try:
            result = await future
        except asyncio.CancelledError:
            fetch.cancel()
            raise
        if result is None:
            raise FetchFailed(fetch.interest[0], fetch.reason, fetch.sent)
        return result

    async def fetch_or_none(self, name, **kwargs) -> Optional[FetchResult]:
        """:meth:`fetch`, returning None instead of raising."""
        try:
            return await self.fetch(name, **kwargs)
        except FetchFailed:
            return None

    @property
    def monitor(self) -> Monitor:
        """The consumer's counters (``interests_sent``, ``fetch_*``, ...)."""
        return self.consumer.monitor

    @property
    def pending_count(self) -> int:
        return self.consumer.pending_count

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"AsyncConsumer({self.consumer.name}, pending={self.pending_count})"


class AsyncProducer:
    """A producer end host bound to a listening UDP face.

    Wraps the simulator's :class:`Producer` (repo, prefix matching,
    auto-generate) unchanged; the UDP face dispatches interests into it
    and its ``face.send_data`` replies go straight to its socket.  The
    face is created peer-less and learns the requester from the first
    well-formed packet — for point-to-point deployments (one upstream
    forwarder per producer face) that is exactly the PiCN wiring.
    """

    def __init__(
        self,
        engine: RealTimeEngine,
        prefix: Union[str, Name],
        producer_id: str = "",
        private: bool = False,
        auto_generate: bool = True,
        content_size: int = 1024,
        processing_delay: float = 0.0,
    ) -> None:
        self.engine = engine
        self.producer = Producer(
            engine,
            prefix=prefix,
            producer_id=producer_id,
            private=private,
            auto_generate=auto_generate,
            content_size=content_size,
            processing_delay=processing_delay,
        )
        self.face: Optional[AsyncUdpFace] = None

    async def attach(
        self,
        local: Address = ("127.0.0.1", 0),
        peer: Optional[Address] = None,
        label: str = "",
    ) -> AsyncUdpFace:
        self.face = await AsyncUdpFace.create(
            self.producer,
            local=local,
            peer=peer,
            label=label or f"{self.producer.producer_id}:face",
        )
        self.producer.face = self.face
        return self.face

    async def close(self) -> None:
        if self.face is not None:
            await self.face.close()

    def publish(self, name, **kwargs) -> Data:
        """Publish one object (see :meth:`Producer.publish`)."""
        return self.producer.publish(name, **kwargs)

    @property
    def repo(self):
        return self.producer.repo

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"AsyncProducer({self.producer.prefix})"
