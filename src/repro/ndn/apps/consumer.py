"""Consumer application: expresses interests and collects content.

The consumer exposes a callback API (:meth:`express_interest` returns a
:class:`~repro.sim.events.Signal`), one callback-driven fetch loop
(:meth:`start_fetch`) and a process wrapper over it (:meth:`fetch`).
Every completed fetch records the measured RTT — the observable the
paper's timing attacks are built on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.faults.retry import RetryPolicy
from repro.ndn.link import Face
from repro.ndn.name import Name, name_of
from repro.ndn.packets import Data, Interest, Nack
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


class Consumer:
    """An end host that requests content by name."""

    def __init__(
        self, engine: Engine, name: str = "consumer", monitor: Optional[Monitor] = None
    ) -> None:
        self.engine = engine
        self.name = name
        self.monitor = monitor if monitor is not None else Monitor()
        self.face: Optional[Face] = None
        # Pending fetches: interest name -> [(waiter, send_time, nonce), ...];
        # a waiter (Signal or _Fetch) is resumed by ``trigger``.
        # The nonce identifies which transmission a Nack rejects, so a Nack
        # for an attempt that already timed out locally cannot be delivered
        # to the attempt that replaced it (duplicate-retry suppression).
        self._pending: Dict[Name, List[Tuple[Union[Signal, _Fetch], float, int]]] = {}
        self.rtts: List[float] = []

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
        self._pending.setdefault(target, []).append(
            (waiter, self.engine.now, interest.nonce)
        )
        self.monitor.count("interests_sent")
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
    ) -> None:
        """Send the first interest of a fetch; ``done`` later receives the
        :class:`FetchResult`, or None once the retry budget is exhausted.

        Without ``retry`` the fetch is a single attempt waiting ``timeout``
        ms (defaulting to the interest lifetime) — the seed behavior.
        With a :class:`~repro.faults.retry.RetryPolicy` the interest is
        retransmitted on timeout with exponential backoff (and jitter
        drawn from ``rng``, when given) up to the policy's budget.
        """
        if retry is None:
            retry = _single_attempt(timeout if timeout is not None else lifetime)
        _Fetch(self, (name_of(name), scope, private, lifetime), retry, rng, done)

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
        self._pending[name] = [
            entry for entry in waiters if entry[0] is not waiter
        ]
        if not self._pending[name]:
            del self._pending[name]

    # ------------------------------------------------------------------
    # PacketHandler interface
    # ------------------------------------------------------------------
    def receive_data(self, data: Data, face: Face) -> None:
        """Match returning content against pending interests (prefix rule)."""
        matched = False
        # Safe to iterate the dict directly: the loop breaks right after
        # the single mutation below, so no entries are visited afterwards.
        for pending_name in self._pending:
            if not pending_name.is_prefix_of(data.name):
                continue
            waiters = self._pending[pending_name]
            waiter, send_time, _nonce = waiters.pop(0)
            if not waiters:
                del self._pending[pending_name]
            now = self.engine.now
            result = FetchResult(data=data, send_time=send_time, receive_time=now)
            self.rtts.append(result.rtt)
            self.monitor.count("data_received")
            waiter.trigger(result, time=now)
            matched = True
            break
        if not matched:
            self.monitor.count("unsolicited_data")

    def receive_interest(self, interest: Interest, face: Face) -> None:
        """Consumers do not serve content."""
        self.monitor.count("unexpected_interest")

    def receive_nack(self, nack: Nack, face: Face) -> None:
        """Deliver an upstream rejection to the waiter it belongs to.

        The waiter fires with the :class:`Nack` itself so the fetch loop
        (and :meth:`express_interest` callers) can
        distinguish explicit congestion pushback from a silent timeout
        and back off accordingly.

        Nacks carry the nonce of the interest they reject, so the Nack
        is matched to that exact transmission.  If the attempt already
        timed out locally (its pending entry was withdrawn and a
        retransmission re-armed under the same name), the late Nack is
        counted as stale and dropped — it must not abort the live
        replacement attempt, which would trigger a duplicate retry.
        PIT-preemption Nacks are synthesized without a nonce (nonce 0)
        and fall back to the oldest waiter.
        """
        waiters = self._pending.get(nack.name)
        if not waiters:
            self.monitor.count("unsolicited_nack")
            return
        if nack.nonce != 0:
            index = next(
                (i for i, entry in enumerate(waiters) if entry[2] == nack.nonce),
                None,
            )
            if index is None:
                self.monitor.count("stale_nacks")
                return
        else:
            index = 0
        waiter, _send_time, _nonce = waiters.pop(index)
        if not waiters:
            del self._pending[nack.name]
        self.monitor.count("nacks_received")
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
    a Nack resumes it through :meth:`trigger`, as it would a Signal."""

    __slots__ = ("consumer", "interest", "retry", "rng", "done", "attempt", "wait",
                 "timer")

    def __init__(self, consumer: Consumer, interest: tuple, retry, rng, done) -> None:
        self.consumer, self.interest, self.retry, self.rng, self.done = (
            consumer, interest, retry, rng, done
        )
        self.attempt = 0
        self._send()

    def _send(self) -> None:
        consumer = self.consumer
        consumer._express(*self.interest, self)
        if self.attempt > 0:
            consumer.monitor.count("fetch_retransmits")
        self.wait = self.retry.timeout_for(self.attempt, self.rng)
        self.timer = consumer.engine.schedule(self.wait, self._timed_out)

    def trigger(self, payload: Union[FetchResult, Nack], time: float) -> None:
        """Data or a Nack answered the live attempt: cancel, then resume."""
        self.timer.cancel()
        if type(payload) is Nack:
            # Upstream congestion: the network explicitly refused this
            # interest.  Back off for the attempt's full timeout (the
            # Nack already withdrew the pending record) before retrying.
            self.consumer.monitor.count("fetch_nacked")
            self.consumer.engine.schedule_fire_and_forget(self.wait, self._retry)
        else:
            self.done(payload)

    def _timed_out(self) -> None:
        self.consumer.monitor.count("fetch_timeouts")
        # Withdraw the stale pending record so late or retried data is
        # not consumed by this abandoned attempt (which would starve a
        # later fetch of the same name).
        self.consumer._cancel_pending(self.interest[0], self)
        self._retry()

    def _retry(self) -> None:
        self.attempt += 1
        if self.attempt < self.retry.attempts:
            self._send()
        else:
            self.consumer.monitor.count("fetch_failures")
            self.done(None)
