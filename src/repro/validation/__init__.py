"""Runtime validation: conservation-law invariants and differential replay.

Two independent nets under the simulator, reporting in one shape
(:class:`DifferentialReport`):

* :class:`InvariantChecker` audits live packet-level state — every
  interest a forwarder admits must be accounted for exactly once
  (satisfied, dropped, Nacked, or still pending), and no table may exceed
  its configured capacity.  It can be asserted once at end of run or
  installed as a periodic in-run monitor.
* :func:`validate_differential` replays the same trace through the
  event-driven oracle (:func:`repro.workload.replay.replay`) and the
  interned fast kernel (:func:`repro.workload.fast_replay.fast_replay`)
  and demands bit-identical :class:`~repro.workload.replay.ReplayStats` —
  the guard that keeps the performance path honest.

Both are wired into ``repro validate`` (CLI, one table of checks next to
the topology, streaming and defense-transparency differentials),
``bench_overload``, and CI.
"""

from repro.validation.differential import (
    DifferentialCase,
    DifferentialReport,
    StreamingCase,
    default_differential_cases,
    default_streaming_cases,
    diff_replay_stats,
    validate_differential,
    validate_streaming_differential,
)
from repro.validation.invariants import (
    InvariantChecker,
    InvariantError,
    Violation,
)
from repro.validation.scenario import (
    OVERLOAD_CONFIGS,
    OverloadResult,
    run_overload_scenario,
    validate_overload,
)

__all__ = [
    "DifferentialCase",
    "DifferentialReport",
    "InvariantChecker",
    "InvariantError",
    "OVERLOAD_CONFIGS",
    "OverloadResult",
    "Violation",
    "StreamingCase",
    "default_differential_cases",
    "default_streaming_cases",
    "diff_replay_stats",
    "run_overload_scenario",
    "validate_differential",
    "validate_overload",
    "validate_streaming_differential",
]
