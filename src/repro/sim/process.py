"""Generator-based simulation processes.

A process is a Python generator driven by the engine.  It yields command
objects to suspend itself:

* ``Timeout(delay)`` — resume after ``delay`` ms of simulated time;
* ``WaitSignal(signal[, timeout])`` — resume when the signal triggers (the
  signal payload is sent back into the generator), or with
  :data:`TIMED_OUT` if the optional timeout elapses first.

Example::

    def consumer(engine, face):
        yield Timeout(10.0)              # think time
        sig = face.express_interest(name)
        data = yield WaitSignal(sig, timeout=4000.0)
        if data is TIMED_OUT:
            ...  # retransmit

Processes are used for application-level behavior (consumers, producers,
attack probes) where sequential code reads far better than callback chains.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Generator, Optional

from repro.sim.errors import ProcessError
from repro.sim.events import Event, Signal


class _TimedOut:
    """Sentinel returned by WaitSignal when its timeout fires first."""

    _instance: Optional["_TimedOut"] = None

    def __new__(cls) -> "_TimedOut":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TIMED_OUT"

    def __bool__(self) -> bool:
        return False


TIMED_OUT = _TimedOut()


class Timeout:
    """Yieldable command: suspend the process for ``delay`` ms."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if not delay >= 0:  # NaN fails this too
            raise ProcessError(f"Timeout delay must be >= 0, got {delay}")
        self.delay = delay


class WaitSignal:
    """Yieldable command: suspend until ``signal`` triggers.

    If ``timeout`` is given and elapses first, the process resumes with
    :data:`TIMED_OUT` instead of the signal payload.
    """

    __slots__ = ("signal", "timeout")

    def __init__(self, signal: Signal, timeout: Optional[float] = None) -> None:
        self.signal = signal
        self.timeout = timeout


class Process:
    """Engine-side driver for one generator process."""

    def __init__(self, engine, generator: Generator, label: str = "") -> None:
        self.engine = engine
        self.generator = generator
        self.label = label
        self.finished = False
        self.result: Any = None
        # The token of the wait in progress (None when not waiting) and
        # that wait's timeout timer.  A signal or timer left over from an
        # earlier wait carries an older token and is ignored.
        self._wait: Optional[int] = None
        self._wait_timer: Optional[Event] = None
        self._waits = 0
        self._wait_label = f"{label}:wait-timeout"
        self.done_signal = Signal(name=f"process-done:{label}")

    def start(self) -> None:
        """Advance the generator to its first yield (runs at current time)."""
        self._advance(None)

    def _advance(self, value: Any) -> None:
        if self.finished:
            return
        try:
            command = self.generator.send(value)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            self.done_signal.trigger(stop.value, time=self.engine.now)
            return
        self._dispatch(command)

    def _dispatch(self, command: Any) -> None:
        if isinstance(command, Timeout):
            # Never cancelled: the handle-free lane (same seq, same order).
            self.engine.schedule_fire_and_forget(command.delay, self._advance, None)
        elif isinstance(command, WaitSignal):
            self._wait_signal(command)
        else:
            self.finished = True
            raise ProcessError(
                f"process {self.label!r} yielded unknown command {command!r}"
            )

    def _wait_signal(self, command: WaitSignal) -> None:
        # Whichever of {signal, timeout} fires first wins; the loser finds
        # the token withdrawn and is ignored (a pending timer is cancelled).
        self._waits += 1
        token = self._wait = self._waits
        self._wait_timer = None
        if command.timeout is not None:
            self._wait_timer = self.engine.schedule(
                command.timeout, self._wait_timed_out, token, label=self._wait_label
            )
        command.signal.add_waiter(partial(self._wait_signalled, token))

    def _wait_signalled(self, token: int, payload: Any) -> None:
        if token != self._wait:
            return
        self._wait = None
        timer = self._wait_timer
        if timer is not None and timer.pending:
            timer.cancel()
        self._advance(payload)

    def _wait_timed_out(self, token: int) -> None:
        if token != self._wait:
            return
        self._wait = None
        self._advance(TIMED_OUT)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Process(label={self.label!r}, finished={self.finished})"
