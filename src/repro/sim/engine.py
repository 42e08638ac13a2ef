"""The discrete-event simulation engine.

Time is a float in **milliseconds** throughout the codebase, matching the
unit the paper reports RTTs in (Figure 3 axes are msec).

The engine is a classic binary-heap event loop.  Determinism guarantees:

* ties in event time break by insertion order (monotonic sequence number),
* all stochastic behavior draws from named streams in
  :class:`repro.sim.rng.RngRegistry`, never from global random state.

Both plain callbacks (:meth:`Engine.schedule`) and generator-based processes
(:meth:`Engine.spawn`, see :mod:`repro.sim.process`) are supported; the NDN
substrate uses callbacks for the forwarding fast path and processes for
application behavior (consumers, attackers).

Hot-path design: the heap holds uniform ``(time, seq, callback, args,
event)`` tuples, so ordering is native tuple comparison (time, then the
unique sequence number — the comparison never reaches the callback).
Cancellable schedules carry an :class:`Event` handle in the last slot;
:meth:`Engine.schedule_fire_and_forget` enqueues with ``None`` there,
skipping the handle allocation entirely — the fast lane link deliveries
ride on.  Both lanes share one sequence counter, so interleaved
same-timestamp events fire in exact insertion order regardless of lane.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Optional

from repro.sim.errors import ClockError, SimulationError
from repro.sim.events import Event, EventState


class Engine:
    """Binary-heap discrete-event simulator with millisecond float time."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        # Uniform heap entries: (time, seq, callback, args, event-or-None).
        self._queue: list = []
        self._seq = 0
        self._running = False
        self._events_processed = 0
        # Live (PENDING) events in the queue, maintained on schedule /
        # cancel / fire so pending_count stays O(1).
        self._pending = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._events_processed

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
        """Schedule ``callback(*args)`` to run ``delay`` ms from now.

        Returns the :class:`Event` handle, which can be cancelled while
        pending.  Negative delays raise :class:`ClockError`.
        """
        if delay < 0:
            raise ClockError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args, label=label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated time ``time``."""
        if time < self._now:
            raise ClockError(
                f"cannot schedule at t={time} (now={self._now}): time moves forward"
            )
        event = Event(time, self._seq, callback, args, label=label)
        event.on_cancel = self._note_cancel
        heapq.heappush(self._queue, (time, self._seq, callback, args, event))
        self._seq += 1
        self._pending += 1
        return event

    def schedule_fire_and_forget(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule an *uncancellable* ``callback(*args)`` ``delay`` ms out.

        The fast lane: no :class:`Event` handle is allocated, so use this
        only for work that is never cancelled (link packet deliveries).
        Shares the sequence counter with :meth:`schedule`, so tie-breaking
        at equal timestamps is identical to the regular lane — interleaved
        schedules fire in insertion order.
        """
        if delay < 0:
            raise ClockError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(
            self._queue, (self._now + delay, self._seq, callback, args, None)
        )
        self._seq += 1
        self._pending += 1

    def _note_cancel(self) -> None:
        self._pending -= 1

    def spawn(
        self, generator: Generator, label: str = ""
    ) -> "Process":  # noqa: F821 - forward ref, resolved at import below
        """Start a generator-based simulation process immediately.

        The generator may yield the command objects defined in
        :mod:`repro.sim.process` (``Timeout``, ``WaitSignal``).  Returns the
        :class:`~repro.sim.process.Process` wrapper.
        """
        from repro.sim.process import Process

        proc = Process(self, generator, label=label)
        proc.start()
        return proc

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run the event loop.

        Stops when the queue drains, when simulated time would exceed
        ``until``, or after ``max_events`` events — whichever comes first.
        Returns the simulated time at which execution stopped.
        """
        if self._running:
            raise SimulationError("engine is not reentrant: run() called from a callback")
        self._running = True
        executed = 0
        queue = self._queue
        heappop = heapq.heappop
        fired = EventState.FIRED
        purge = self._purge_cancelled
        try:
            while True:
                purge()
                if not queue:
                    # Queue drained; if a horizon was given, advance to it
                    # so that back-to-back run(until=...) calls observe
                    # monotonic time.
                    if until is not None and until > self._now:
                        self._now = until
                    break
                entry = queue[0]
                if until is not None and entry[0] > until:
                    self._now = until
                    break
                if max_events is not None and executed >= max_events:
                    break
                heappop(queue)
                self._now = entry[0]
                event = entry[4]
                if event is not None:
                    event.state = fired
                self._pending -= 1
                entry[2](*entry[3])
                self._events_processed += 1
                executed += 1
        finally:
            self._running = False
        return self._now

    def step(self) -> bool:
        """Execute exactly one event.  Returns False if the queue is empty."""
        self._purge_cancelled()
        if not self._queue:
            return False
        self._fire(heapq.heappop(self._queue))
        return True

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        self._purge_cancelled()
        return self._queue[0][0] if self._queue else None

    def _purge_cancelled(self) -> None:
        """Drop cancelled events sitting at the head of the heap.

        The single purge helper shared by :meth:`run`, :meth:`step`, and
        :meth:`peek`.  The rule is the batch kernel's too: both engines
        pop a ``(time, seq)`` heap and skip cancelled entries lazily (the
        kernel tracks them by seq, see :mod:`repro.sim.batch.kernel`).
        """
        queue = self._queue
        cancelled = EventState.CANCELLED
        heappop = heapq.heappop
        while queue:
            event = queue[0][4]
            if event is not None and event.state is cancelled:
                heappop(queue)
            else:
                break

    def _fire(self, entry: tuple) -> None:
        """Execute one pending heap entry that was just popped."""
        self._now = entry[0]
        event = entry[4]
        if event is not None:
            event.state = EventState.FIRED
        self._pending -= 1
        entry[2](*entry[3])
        self._events_processed += 1

    @property
    def pending_count(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1)).

        Counts both lanes: cancellable events and fire-and-forget entries.
        """
        return self._pending

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Engine(now={self._now:.3f}, pending={self.pending_count})"
