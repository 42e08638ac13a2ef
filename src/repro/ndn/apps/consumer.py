"""Consumer application: expresses interests and collects content.

The consumer exposes both a callback API (:meth:`express_interest` returns
a :class:`~repro.sim.events.Signal`) and a process-friendly coroutine
helper (:meth:`fetch`).  Every completed fetch records the measured RTT —
the observable the paper's timing attacks are built on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.faults.retry import RetryPolicy
from repro.ndn.link import Face
from repro.ndn.name import Name, name_of
from repro.ndn.packets import Data, Interest, Nack
from repro.sim.engine import Engine
from repro.sim.events import Signal
from repro.sim.monitor import Monitor
from repro.sim.process import TIMED_OUT, Timeout, WaitSignal


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
        # Pending fetches: interest name -> [(signal, send_time, nonce), ...].
        # The nonce identifies which transmission a Nack rejects, so a Nack
        # for an attempt that already timed out locally cannot be delivered
        # to the attempt that replaced it (duplicate-retry suppression).
        self._pending: Dict[Name, List[Tuple[Signal, float, int]]] = {}
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
        if self.face is None:
            raise RuntimeError(f"consumer {self.name} has no face attached")
        target = name_of(name)
        interest = Interest(
            name=target, scope=scope, private=private, lifetime=lifetime
        )
        signal = Signal(name=f"{self.name}:fetch:{target}")
        self._pending.setdefault(target, []).append(
            (signal, self.engine.now, interest.nonce)
        )
        self.monitor.count("interests_sent")
        self.face.send_interest(interest)
        return signal

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

        Returns the :class:`FetchResult`, or None once the retry budget is
        exhausted.  Without ``retry`` the fetch is a single attempt waiting
        ``timeout`` ms (defaulting to the interest lifetime) — the seed
        behavior.  With a :class:`~repro.faults.retry.RetryPolicy` the
        interest is retransmitted on timeout with exponential backoff (and
        jitter drawn from ``rng``, when given) up to the policy's budget —
        the loop previously private to the interactive endpoints,
        available to every consumer.
        """
        if retry is None:
            retry = RetryPolicy(
                retries=0,
                timeout=timeout if timeout is not None else lifetime,
                backoff=1.0,
            )
        target = name_of(name)
        for attempt in range(retry.attempts):
            signal = self.express_interest(
                target, scope=scope, private=private, lifetime=lifetime
            )
            if attempt > 0:
                self.monitor.count("fetch_retransmits")
            wait = retry.timeout_for(attempt, rng)
            result = yield WaitSignal(signal, timeout=wait)
            if isinstance(result, Nack):
                # Upstream congestion: the network explicitly refused this
                # interest.  Back off for the attempt's full timeout (the
                # Nack already withdrew the pending entry) before retrying.
                self.monitor.count("fetch_nacked")
                yield Timeout(wait)
                continue
            if result is not TIMED_OUT:
                return result
            self.monitor.count("fetch_timeouts")
            # Withdraw the stale pending entry so late or retried data is
            # not consumed by this abandoned fetch (which would starve a
            # later fetch of the same name).
            self._cancel_pending(target, signal)
        self.monitor.count("fetch_failures")
        return None

    def _cancel_pending(self, name: Name, signal: Signal) -> None:
        """Remove one abandoned (signal, send-time) record for ``name``."""
        waiters = self._pending.get(name)
        if not waiters:
            return
        self._pending[name] = [
            entry for entry in waiters if entry[0] is not signal
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
            signal, send_time, _nonce = waiters.pop(0)
            if not waiters:
                del self._pending[pending_name]
            result = FetchResult(
                data=data, send_time=send_time, receive_time=self.engine.now
            )
            self.rtts.append(result.rtt)
            self.monitor.count("data_received")
            signal.trigger(result, time=self.engine.now)
            matched = True
            break
        if not matched:
            self.monitor.count("unsolicited_data")

    def receive_interest(self, interest: Interest, face: Face) -> None:
        """Consumers do not serve content."""
        self.monitor.count("unexpected_interest")

    def receive_nack(self, nack: Nack, face: Face) -> None:
        """Deliver an upstream rejection to the waiter it belongs to.

        The waiter's signal fires with the :class:`Nack` itself so
        :meth:`fetch` (and :meth:`express_interest` callers) can
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
        signal, _send_time, _nonce = waiters.pop(index)
        if not waiters:
            del self._pending[nack.name]
        self.monitor.count("nacks_received")
        signal.trigger(nack, time=self.engine.now)

    @property
    def pending_count(self) -> int:
        """Number of interests still awaiting content."""
        return sum(len(v) for v in self._pending.values())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Consumer({self.name}, pending={self.pending_count})"
