"""Consumer application: expresses interests and collects content.

The consumer exposes a callback API (:meth:`express_interest` returns a
:class:`~repro.sim.events.Signal`), one callback-driven fetch loop
(:meth:`start_fetch`) and a process wrapper over it (:meth:`fetch`).  The
live daemon's :class:`~repro.deploy.endpoints.AsyncConsumer` awaits the
same loop, so every retry, Nack and deadline decision is made here.  A
:class:`FetchResult` carries its fetch's RTT, the observable the paper's
timing attacks are built on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from typing import Callable, Dict, Optional, Union

import numpy as np

from repro.faults.retry import RetryPolicy
from repro.ndn.link import Face
from repro.ndn.name import Name, name_of
from repro.ndn.packets import NACK_NO_ROUTE, Data, Interest, Nack
from repro.sim.engine import Engine
from repro.sim.events import Signal
from repro.sim.monitor import Monitor
from repro.sim.process import WaitSignal


@lru_cache(maxsize=256, typed=True)
def _single_attempt(timeout: float) -> RetryPolicy:
    """The frozen one-attempt policy of a ``retry=None`` fetch, built once
    per distinct timeout."""
    return RetryPolicy(retries=0, timeout=timeout, backoff=1.0)


@dataclass(frozen=True)
class FetchResult:
    """Outcome of one satisfied interest."""

    data: Data
    send_time: float
    receive_time: float

    @property
    def rtt(self) -> float:
        """Interest-out to content-in round-trip time in ms."""
        return self.receive_time - self.send_time


class _Waiters(list):
    """One name's pending ``(waiter, send_time, nonce)`` records, oldest
    first; ``rank`` orders the names by when each entered the table."""

    __slots__ = ("rank",)


class Consumer:
    """An end host that requests content by name."""

    def __init__(
        self, engine: Engine, name: str = "consumer", monitor: Optional[Monitor] = None
    ) -> None:
        self.engine = engine
        self.name = name
        self.monitor = monitor if monitor is not None else Monitor()
        self._counts = self.monitor.live
        self.face: Optional[Face] = None
        # Pending fetches by interest name; a waiter (Signal or _Fetch) is
        # resumed by ``trigger``.  The nonce identifies which transmission a Nack rejects, so a Nack
        # for an attempt that already timed out locally cannot be delivered
        # to the attempt that replaced it (duplicate-retry suppression).
        self._pending: Dict[Name, _Waiters] = {}
        self._ranks = count()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def create_face(self, label: str = "") -> Face:
        """Create the consumer's (single) upstream face."""
        face = Face(self, label=label or f"{self.name}:face")
        self.face = face
        return face

    # ------------------------------------------------------------------
    # Requesting
    # ------------------------------------------------------------------
    def express_interest(
        self,
        name: Union[str, Name],
        scope: Optional[int] = None,
        private: bool = False,
        lifetime: float = 4000.0,
    ) -> Signal:
        """Send one interest; the returned signal fires with a FetchResult.

        Multiple outstanding interests for the same name are each satisfied
        (oldest first) as matching content arrives.
        """
        target = name_of(name)
        signal = Signal(name=f"{self.name}:fetch:{target}")
        self._express(target, scope, private, lifetime, signal)
        return signal

    def _express(self, target: Name, scope, private, lifetime, waiter) -> None:
        """Record ``waiter`` as pending on ``target``, then transmit."""
        if self.face is None:
            raise RuntimeError(f"consumer {self.name} has no face attached")
        interest = Interest(
            name=target, scope=scope, private=private, lifetime=lifetime
        )
        waiters = self._pending.get(target)
        if waiters is None:
            waiters = self._pending[target] = _Waiters()
            waiters.rank = next(self._ranks)
        waiters.append((waiter, self.engine.now, interest.nonce))
        self._counts["interests_sent"] += 1
        self.face.send_interest(interest)

    def start_fetch(
        self,
        name: Union[str, Name],
        done: Callable[[Optional[FetchResult]], None],
        scope: Optional[int] = None,
        private: bool = False,
        lifetime: float = 4000.0,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        rng: Optional[np.random.Generator] = None,
        deadline: Optional[float] = None,
    ) -> _Fetch:
        """Send the first interest of a fetch; ``done`` later receives the
        :class:`FetchResult`, or None once the retry budget is exhausted.

        Without ``retry`` the fetch is a single attempt waiting ``timeout``
        ms (defaulting to the interest lifetime) — the seed behavior.
        With a :class:`~repro.faults.retry.RetryPolicy` the interest is
        retransmitted on timeout with exponential backoff (and jitter
        drawn from ``rng``, when given) up to the policy's budget.
        ``deadline`` (ms) bounds the whole fetch: an attempt waits, and its
        interest lives, at most the remaining budget.  Returns the fetch,
        whose ``cancel`` abandons it.
        """
        if retry is None:
            retry = _single_attempt(timeout if timeout is not None else lifetime)
        return _Fetch(
            self, (name_of(name), scope, private, lifetime), retry, rng, done, deadline
        )

    def fetch(
        self,
        name: Union[str, Name],
        scope: Optional[int] = None,
        private: bool = False,
        lifetime: float = 4000.0,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        """Coroutine helper: ``result = yield from consumer.fetch(...)``.

        :meth:`start_fetch` for a process: returns the
        :class:`FetchResult`, or None once the retry budget is exhausted.
        """
        done = Signal(name=f"{self.name}:fetch")
        self.start_fetch(name, done.trigger, scope, private, lifetime, timeout, retry, rng)
        return (yield WaitSignal(done))

    def _cancel_pending(self, name: Name, waiter: _Fetch) -> None:
        """Remove one abandoned (waiter, send-time) record for ``name``."""
        waiters = self._pending.get(name)
        if not waiters:
            return
        waiters[:] = [entry for entry in waiters if entry[0] is not waiter]
        if not waiters:
            del self._pending[name]

    # ------------------------------------------------------------------
    # PacketHandler interface
    # ------------------------------------------------------------------
    def receive_data(self, data: Data, face: Face) -> None:
        """Answer the oldest record of the earliest-entered pending name
        that is a prefix of the Data's (looked up along its prefix chain)."""
        pending = self._pending
        match = None
        for prefix in data.name.prefixes():
            waiters = pending.get(prefix)
            if waiters is not None and (match is None or waiters.rank < match.rank):
                match, matched = waiters, prefix
        if match is None:
            self._counts["unsolicited_data"] += 1
            return
        waiter, send_time, _nonce = match.pop(0)
        if not match:
            del pending[matched]
        now = self.engine.now
        self._counts["data_received"] += 1
        waiter.trigger(FetchResult(data=data, send_time=send_time, receive_time=now), time=now)

    def receive_interest(self, interest: Interest, face: Face) -> None:
        """Consumers do not serve content."""
        self._counts["unexpected_interest"] += 1

    def receive_nack(self, nack: Nack, face: Face) -> None:
        """Deliver an upstream rejection, as the :class:`Nack` itself, to
        the transmission its nonce names on its exact name.

        A Nack for an attempt that already timed out (its record withdrawn,
        a retransmission re-armed) is counted as stale and dropped: it must
        not abort the live attempt, which would double the retry.
        PIT-preemption Nacks carry nonce 0 and go to the oldest waiter.
        """
        waiters = self._pending.get(nack.name)
        if not waiters:
            self._counts["unsolicited_nack"] += 1
            return
        if nack.nonce != 0:
            index = next(
                (i for i, entry in enumerate(waiters) if entry[2] == nack.nonce),
                None,
            )
            if index is None:
                self._counts["stale_nacks"] += 1
                return
        else:
            index = 0
        waiter, _send_time, _nonce = waiters.pop(index)
        if not waiters:
            del self._pending[nack.name]
        self._counts["nacks_received"] += 1
        waiter.trigger(nack, time=self.engine.now)

    @property
    def pending_count(self) -> int:
        """Number of interests still awaiting content."""
        return sum(len(v) for v in self._pending.values())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Consumer({self.name}, pending={self.pending_count})"


class _Fetch:
    """One fetch's retry loop, driven by callbacks: each attempt transmits,
    then arms its timeout; its pending record holds the fetch, so Data or
    a Nack resumes it through :meth:`trigger`, as it would a Signal.
    ``sent`` counts its interests; ``reason`` says why it failed."""

    __slots__ = ("consumer", "interest", "retry", "rng", "done", "end", "sent",
                 "wait", "timer", "reason")

    def __init__(
        self, consumer: Consumer, interest: tuple, retry, rng, done, deadline
    ) -> None:
        self.consumer, self.interest, self.retry, self.rng, self.done = (
            consumer, interest, retry, rng, done
        )
        self.end = None if deadline is None else consumer.engine.now + deadline
        self.sent = 0
        self._send()

    def _send(self) -> None:
        consumer = self.consumer
        name, scope, private, lifetime = self.interest
        if self.end is None:
            wait = self.retry.timeout_for(self.sent, self.rng)
        else:
            remaining = self.end - consumer.engine.now
            if remaining <= 0:
                self._fail("deadline")
                return
            wait = min(self.retry.timeout_for(self.sent, self.rng), remaining)
            lifetime = max(wait, 1.0)
        consumer._express(name, scope, private, lifetime, self)
        if self.sent > 0:
            consumer._counts["fetch_retransmits"] += 1
        self.sent += 1
        self.wait = wait
        self.timer = consumer.engine.schedule(wait, self._timed_out)

    def trigger(self, payload: Union[FetchResult, Nack], time: float) -> None:
        """Data or a Nack answered the live attempt: cancel, then resume."""
        self.timer.cancel()
        if type(payload) is not Nack:
            self.done(payload)
            return
        self.consumer._counts["fetch_nacked"] += 1
        if payload.reason == NACK_NO_ROUTE:
            # No amount of back-off creates a route.
            self._fail("no-route")
            return
        # Upstream congestion: back off for the attempt's wait (the Nack
        # already withdrew the pending record), then retry.
        self.reason = "nacked"
        backoff = self.wait
        if self.end is not None:
            backoff = max(0.0, min(backoff, self.end - self.consumer.engine.now))
        self.timer = self.consumer.engine.schedule(backoff, self._retry)

    def _timed_out(self) -> None:
        self.consumer._counts["fetch_timeouts"] += 1
        self.reason = "timeout"
        # Withdraw the stale pending record so late or retried data is
        # not consumed by this abandoned attempt (which would starve a
        # later fetch of the same name).
        self.consumer._cancel_pending(self.interest[0], self)
        self._retry()

    def _retry(self) -> None:
        if self.sent < self.retry.attempts:
            self._send()
        else:
            self._fail(self.reason)

    def _fail(self, reason: str) -> None:
        self.reason = reason
        self.consumer._counts["fetch_failures"] += 1
        self.done(None)

    def cancel(self) -> None:
        """Abandon the fetch: its timer is cancelled and its pending record
        withdrawn, so nothing is retransmitted and ``done`` is not called."""
        if self.timer.pending:
            self.timer.cancel()
        self.consumer._cancel_pending(self.interest[0], self)
