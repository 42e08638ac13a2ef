"""Deterministic discrete-event simulation engine.

Time is a float in milliseconds.  See :class:`Engine` for the event loop,
:mod:`repro.sim.process` for generator-based processes, and
:class:`RngRegistry` for reproducible named random streams.
"""

from repro.sim.engine import Engine
from repro.sim.errors import (
    ClockError,
    EventStateError,
    ProcessError,
    RngError,
    SimulationError,
)
from repro.sim.events import Event, EventState, Signal
from repro.sim.monitor import Monitor
from repro.sim.process import TIMED_OUT, Process, Timeout, WaitSignal
from repro.sim.rng import RngRegistry

__all__ = [
    "Engine",
    "Event",
    "EventState",
    "Signal",
    "Process",
    "Timeout",
    "WaitSignal",
    "TIMED_OUT",
    "Monitor",
    "RngRegistry",
    "SimulationError",
    "ClockError",
    "EventStateError",
    "ProcessError",
    "RngError",
]
