"""Event primitives for the discrete-event engine.

An :class:`Event` is a handle for a callback scheduled at a simulated time.
Events support cancellation, which is how timeouts and retransmission timers
are implemented throughout the NDN substrate.

A :class:`Signal` is a named, multi-waiter synchronization point: simulation
processes can block on it and are all resumed when it is triggered.  Signals
carry an optional payload (e.g. the content object that satisfied an
interest).
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional

from repro.sim.errors import EventStateError


class EventState(enum.Enum):
    """Lifecycle of a scheduled event."""

    PENDING = "pending"
    FIRED = "fired"
    CANCELLED = "cancelled"


class Event:
    """A cancellable callback scheduled on the engine.

    Instances are created by :meth:`repro.sim.engine.Engine.schedule`; user
    code holds them only to call :meth:`cancel`.
    """

    __slots__ = ("time", "seq", "callback", "args", "state", "label", "on_cancel")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple = (),
        label: str = "",
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.state = EventState.PENDING
        self.label = label
        #: Set by the engine so its live-event counter stays O(1) in sync.
        self.on_cancel: Optional[Callable[[], None]] = None

    def cancel(self) -> None:
        """Cancel a pending event.

        Cancelling an already-cancelled event is a no-op; cancelling a fired
        event raises :class:`EventStateError` because it almost always
        indicates a logic error (the timer raced its own cancellation).
        """
        if self.state is EventState.FIRED:
            raise EventStateError(
                f"cannot cancel event {self.label or self.seq}: already fired"
            )
        if self.state is EventState.PENDING:
            self.state = EventState.CANCELLED
            # A callback bound to the canceller (a fetch holding its own
            # timeout) would otherwise keep a reference cycle alive.
            self.callback = self.args = None
            if self.on_cancel is not None:
                self.on_cancel()

    @property
    def pending(self) -> bool:
        """True while the event has neither fired nor been cancelled."""
        return self.state is EventState.PENDING

    def __lt__(self, other: "Event") -> bool:
        # Time first, then insertion order for determinism.  The engine's
        # heap orders its own (time, seq, ...) tuples and never compares
        # Event objects; this stays for handle sorting in user code.
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Event(t={self.time:.6f}, seq={self.seq}, "
            f"state={self.state.value}, label={self.label!r})"
        )


class Signal:
    """A named broadcast synchronization point with an optional payload.

    Processes wait on a signal (via ``yield WaitSignal(sig)``); triggering it
    resumes every waiter.  A signal can only be triggered once; re-triggering
    raises.  This matches the one-shot semantics of "this interest was
    satisfied" used by the NDN consumer applications.
    """

    __slots__ = ("name", "_waiters", "triggered", "payload", "trigger_time")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._waiters: list[Callable[[Any], None]] = []
        self.triggered = False
        self.payload: Any = None
        self.trigger_time: Optional[float] = None

    def add_waiter(self, resume: Callable[[Any], None]) -> None:
        """Register a resume callback; invoked immediately if already triggered."""
        if self.triggered:
            resume(self.payload)
        else:
            self._waiters.append(resume)

    def trigger(self, payload: Any = None, time: Optional[float] = None) -> None:
        """Fire the signal, resuming all waiters with ``payload``."""
        if self.triggered:
            raise EventStateError(f"signal {self.name!r} triggered twice")
        self.triggered = True
        self.payload = payload
        self.trigger_time = time
        waiters, self._waiters = self._waiters, []
        for resume in waiters:
            resume(payload)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Signal(name={self.name!r}, triggered={self.triggered})"
