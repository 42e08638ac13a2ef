"""Socket-side applications: async consumer and producer.

:class:`AsyncProducer` is the simulator's
:class:`~repro.ndn.apps.producer.Producer` bound to an
:class:`~repro.deploy.faces.AsyncUdpFace` — the packet-handler contract
is identical, so the class is reused outright and only the wiring is new.

:class:`AsyncConsumer` is a native asyncio requester implementing the
deployment side of the recovery story:

* **deadline propagation** — a fetch carries one overall deadline; every
  retransmitted interest's ``lifetime`` is clamped to the *remaining*
  budget, so routers along the path never hold PIT state for a request
  whose requester has already given up;
* **retransmission** — per-attempt timeouts come from
  :class:`repro.faults.retry.RetryPolicy` (exponential backoff + jitter +
  ``max_delay`` cap), with attempts cut short by the deadline;
* **Nack awareness** — a ``congestion``/``pit-full`` Nack backs off and
  retries; a ``no-route`` Nack fails fast (retrying cannot help until
  topology changes);
* **duplicate-retry suppression** — pending state is keyed by interest
  nonce, so a stale Nack for an attempt that already timed out locally
  cannot cancel or double-trigger the live attempt (mirrors the
  simulator consumers' suppression).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

import numpy as np

from repro.deploy.clock import RealTimeEngine
from repro.deploy.faces import Address, AsyncUdpFace
from repro.faults.retry import RetryPolicy
from repro.ndn.apps.producer import Producer
from repro.ndn.name import Name, name_of
from repro.ndn.packets import NACK_NO_ROUTE, Data, Interest, Nack


@dataclass(frozen=True)
class AsyncFetchResult:
    """Outcome of one satisfied fetch over real sockets."""

    data: Data
    send_time: float
    receive_time: float
    attempts: int

    @property
    def rtt(self) -> float:
        """First-send to content-in latency in engine ms."""
        return self.receive_time - self.send_time


class FetchFailed(Exception):
    """A fetch exhausted its retry budget or deadline."""

    def __init__(self, name: Name, reason: str, attempts: int) -> None:
        self.name = name
        self.reason = reason
        self.attempts = attempts
        super().__init__(f"fetch {name} failed ({reason}) after {attempts} attempt(s)")


def _resolve(future: asyncio.Future, outcome) -> None:
    """Complete an attempt with Data, a Nack, or None for its timeout."""
    if not future.done():
        future.set_result(outcome)


class AsyncConsumer:
    """An end host requesting content over a UDP face."""

    def __init__(self, engine: RealTimeEngine, name: str = "consumer") -> None:
        self.engine = engine
        self.name = name
        self.face: Optional[AsyncUdpFace] = None
        # nonce -> future; name -> [nonce, ...] oldest first, never empty.
        self._by_nonce: Dict[int, asyncio.Future] = {}
        self._by_name: Dict[Name, List[int]] = {}
        self.fetches_ok = 0
        self.fetch_failures = 0
        self.fetch_timeouts = 0
        self.fetch_nacked = 0
        self.fetch_retransmits = 0
        self.stale_nacks = 0
        self.unsolicited_data = 0

    async def attach(
        self,
        local: Address = ("127.0.0.1", 0),
        peer: Optional[Address] = None,
        label: str = "",
    ) -> AsyncUdpFace:
        """Bind the consumer's (single) upstream UDP face."""
        self.face = await AsyncUdpFace.create(
            self, local=local, peer=peer, label=label or f"{self.name}:face"
        )
        return self.face

    async def close(self) -> None:
        if self.face is not None:
            await self.face.close()

    # ------------------------------------------------------------------
    # Fetching
    # ------------------------------------------------------------------
    async def fetch(
        self,
        name: Union[str, Name],
        scope: Optional[int] = None,
        private: bool = False,
        deadline: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> AsyncFetchResult:
        """Fetch ``name``; raises :class:`FetchFailed` on exhaustion.

        ``deadline`` (engine ms) is the overall budget across all
        attempts; it defaults to the policy's ``deadline`` when the
        policy carries one, else to the policy's total worst-case wait.
        Each interest's lifetime is the remaining budget at send time —
        deadline propagation down the forwarding path.
        """
        if self.face is None:
            raise RuntimeError(f"consumer {self.name} has no face attached")
        if retry is None:
            retry = RetryPolicy(retries=0, timeout=1000.0, backoff=1.0)
        if deadline is None:
            deadline = (
                retry.deadline if retry.deadline is not None else retry.total_budget()
            )
        target = name_of(name)
        loop = asyncio.get_running_loop()
        start = self.engine.now
        attempts = 0
        reason = "timeout"
        for attempt in range(retry.attempts):
            elapsed = self.engine.now - start
            remaining = deadline - elapsed
            if remaining <= 0:
                reason = "deadline"
                break
            wait = min(retry.timeout_for(attempt, rng), remaining)
            interest = Interest(
                name=target,
                scope=scope,
                private=private,
                lifetime=max(wait, 1.0),
            )
            future: asyncio.Future = loop.create_future()
            self._register(target, interest.nonce, future)
            attempts += 1
            if attempt > 0:
                self.fetch_retransmits += 1
            self.face.send_interest(interest)
            # One timer per attempt; it resolves the future with None.
            timer = loop.call_later(
                self.engine._to_loop_delay(wait), _resolve, future, None
            )
            outcome = None
            try:
                outcome = await future
            finally:
                timer.cancel()
                if outcome is None:
                    # Timed out, or the await was cancelled from outside:
                    # either way nobody waits on this nonce any more.
                    self._withdraw(target, interest.nonce)
            if outcome is None:
                self.fetch_timeouts += 1
                continue
            if isinstance(outcome, Nack):
                self.fetch_nacked += 1
                if outcome.reason == NACK_NO_ROUTE:
                    # Fast-fail: no amount of backoff creates a route.
                    reason = "no-route"
                    break
                # Congestion pushback: sit out the attempt's budget.
                backoff = min(wait, deadline - (self.engine.now - start))
                if backoff > 0:
                    await asyncio.sleep(self.engine._to_loop_delay(backoff))
                reason = "nacked"
                continue
            result = AsyncFetchResult(
                data=outcome,
                send_time=start,
                receive_time=self.engine.now,
                attempts=attempts,
            )
            self.fetches_ok += 1
            return result
        self.fetch_failures += 1
        raise FetchFailed(target, reason, attempts)

    async def fetch_or_none(self, name, **kwargs) -> Optional[AsyncFetchResult]:
        """:meth:`fetch`, returning None instead of raising."""
        try:
            return await self.fetch(name, **kwargs)
        except FetchFailed:
            return None

    # ------------------------------------------------------------------
    # Pending-state bookkeeping
    # ------------------------------------------------------------------
    def _register(self, name: Name, nonce: int, future: asyncio.Future) -> None:
        self._by_nonce[nonce] = future
        self._by_name.setdefault(name, []).append(nonce)

    def _withdraw(self, name: Name, nonce: int) -> None:
        self._by_nonce.pop(nonce, None)
        nonces = self._by_name.get(name)
        if nonces:
            try:
                nonces.remove(nonce)
            except ValueError:
                pass
            if not nonces:
                del self._by_name[name]

    def _resolve_oldest(self, name: Name, payload) -> bool:
        """Trigger the oldest live waiter whose name is a prefix of ``name``.

        Looks up the name and its prefixes (depth + 1 keys), not every
        pending name.  Nonces are monotonic, so among the matching names
        the list with the smallest head nonce was registered first.
        """
        by_name = self._by_name
        while True:
            oldest = None
            for prefix in name.prefixes():
                nonces = by_name.get(prefix)
                if nonces is not None and (
                    oldest is None or nonces[0] < by_name[oldest][0]
                ):
                    oldest = prefix
            if oldest is None:
                return False
            nonces = by_name[oldest]
            future = self._by_nonce.pop(nonces.pop(0), None)
            if not nonces:
                del by_name[oldest]
            if future is not None and not future.done():
                future.set_result(payload)
                return True

    # ------------------------------------------------------------------
    # PacketHandler interface (called from the face dispatch task)
    # ------------------------------------------------------------------
    def receive_data(self, data: Data, face: AsyncUdpFace) -> None:
        if not self._resolve_oldest(data.name, data):
            self.unsolicited_data += 1

    def receive_interest(self, interest: Interest, face: AsyncUdpFace) -> None:
        pass  # consumers do not serve content

    def receive_nack(self, nack: Nack, face: AsyncUdpFace) -> None:
        """Deliver a Nack to the attempt it rejects — by nonce.

        A Nack whose nonce matches no live attempt (that attempt already
        timed out locally and was retransmitted) is suppressed: failing
        the *new* attempt for the old one's rejection would double the
        backoff and double-retry.  Nonce 0 means "unknown" (e.g. a PIT
        preemption Nack), which falls back to oldest-waiter delivery.
        """
        if nack.nonce != 0:
            future = self._by_nonce.pop(nack.nonce, None)
            if future is None:
                self.stale_nacks += 1
                return
            nonces = self._by_name.get(nack.name)
            if nonces is not None:
                try:
                    nonces.remove(nack.nonce)
                except ValueError:
                    pass
                if not nonces:
                    del self._by_name[nack.name]
            _resolve(future, nack)
            return
        if not self._resolve_oldest(nack.name, nack):
            self.stale_nacks += 1

    @property
    def pending_count(self) -> int:
        return len(self._by_nonce)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"AsyncConsumer({self.name}, pending={self.pending_count})"


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
