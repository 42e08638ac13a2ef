"""A wall-clock implementation of the simulator's scheduling interface.

:class:`RealTimeEngine` lets the discrete-event NDN core — forwarders,
producers, rate limiters, privacy-scheme delay timers — run unmodified
against real time.  It implements the subset of
:class:`repro.sim.engine.Engine` the data plane actually uses:

* ``now`` — milliseconds since the engine was created (the simulator's
  unit), read off the asyncio loop's monotonic clock;
* ``schedule(delay, cb, *args, label=...)`` — returns a cancellable
  :class:`~repro.sim.events.Event` handle (PIT expiry timers hold these);
* ``schedule_fire_and_forget(delay, cb, *args)`` — the uncancellable fast
  lane (delayed sends, scheme delays);
* ``schedule_at(time, ...)`` and ``spawn`` for completeness.

Callbacks run on the asyncio event loop thread, exactly as simulator
callbacks run on the engine loop: one at a time, never concurrently, so
the forwarder's single-threaded invariants (every interest classified
exactly once, PIT ledger balance) carry over to the daemon untouched.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Optional

from repro.sim.errors import ClockError
from repro.sim.events import Event, EventState


class RealTimeEngine:
    """The sim Engine scheduling interface over an asyncio loop.

    Construct it with the asyncio loop it schedules on.
    Time starts at 0.0 ms at construction and advances with the loop's
    monotonic clock; ``time_scale`` stretches real time relative to the
    engine clock (``time_scale=2.0`` makes 1 engine-ms take 2 real ms —
    useful to slow a scenario down without touching its parameters).
    """

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        time_scale: float = 1.0,
    ) -> None:
        if time_scale <= 0:
            raise ClockError(f"time_scale must be > 0, got {time_scale}")
        self._loop = loop
        self._scale = time_scale
        self._t0 = self._loop.time()
        self._seq = 0
        self._events_processed = 0
        self._pending = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Milliseconds of engine time since construction."""
        return (self._loop.time() - self._t0) * 1000.0 / self._scale

    @property
    def events_processed(self) -> int:
        """Callbacks fired so far (cancelled timers excluded)."""
        return self._events_processed

    @property
    def pending_count(self) -> int:
        """Timers scheduled but not yet fired or cancelled."""
        return self._pending

    def _to_loop_delay(self, delay_ms: float) -> float:
        return (delay_ms * self._scale) / 1000.0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` ``delay`` engine-ms from now.

        Returns an :class:`Event` whose :meth:`~Event.cancel` also cancels
        the underlying asyncio timer, so PIT-expiry and retransmission
        timers behave exactly as in the simulator.
        """
        if delay < 0:
            raise ClockError(f"cannot schedule into the past (delay={delay})")
        event = Event(self.now + delay, self._seq, callback, args, label=label)
        self._seq += 1
        self._pending += 1
        handle = self._loop.call_later(
            self._to_loop_delay(delay), self._fire, event
        )
        event.on_cancel = lambda: self._on_cancel(handle)
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule at absolute engine time ``time`` (ms since start)."""
        delay = time - self.now
        if delay < 0:
            raise ClockError(
                f"cannot schedule at t={time} (now={self.now:.3f}): "
                "time moves forward"
            )
        return self.schedule(delay, callback, *args, label=label)

    def schedule_fire_and_forget(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Uncancellable ``callback(*args)`` ``delay`` engine-ms out."""
        if delay < 0:
            raise ClockError(f"cannot schedule into the past (delay={delay})")
        self._pending += 1
        self._loop.call_later(
            self._to_loop_delay(delay), self._fire_fast, callback, args
        )

    def _fire(self, event: Event) -> None:
        if not event.pending:  # cancelled between expiry and callback
            return
        event.state = EventState.FIRED
        self._pending -= 1
        self._events_processed += 1
        event.callback(*event.args)

    def _fire_fast(self, callback: Callable[..., None], args: tuple) -> None:
        self._pending -= 1
        self._events_processed += 1
        callback(*args)

    def _on_cancel(self, handle: asyncio.TimerHandle) -> None:
        handle.cancel()
        self._pending -= 1

    # ------------------------------------------------------------------
    # Compatibility shims
    # ------------------------------------------------------------------
    def spawn(self, generator, label: str = ""):
        """Generator processes are a simulator-only feature."""
        raise ClockError(
            "RealTimeEngine does not run simulation processes; use asyncio "
            "coroutines (repro.deploy.endpoints) instead"
        )

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None):
        """The asyncio loop drives execution; run() is meaningless here."""
        raise ClockError(
            "RealTimeEngine is driven by the asyncio loop, not run(); "
            "await your workload instead"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"RealTimeEngine(now={self.now:.1f}ms, "
            f"pending={self._pending}, fired={self._events_processed})"
        )
