"""Runtime validation: conservation-law invariants and differential replay.

Two independent nets under the simulator, reporting in one shape
(:class:`DifferentialReport`):

* :class:`InvariantChecker` audits live packet-level state — every
  interest a forwarder admits must be accounted for exactly once
  (satisfied, dropped, Nacked, or still pending), and no table may exceed
  its configured capacity.  It can be asserted once at end of run or
  installed as a periodic in-run monitor.
* :func:`validate_replay_differential` runs every
  :class:`~repro.perf.parallel.ReplaySpec` case on each trace
  representation (``generate()``, the sharded cache, the TSV import)
  through :func:`~repro.perf.parallel.run_replay_sweep` — the
  stack-distance grid or the replay kernel, as Figure 5 dispatches — and
  demands :class:`~repro.workload.replay.ReplayStats` bit-identical to
  the event-driven oracle (:func:`repro.workload.replay.replay`) over the
  generator stream — the guard that keeps the performance paths honest.

Both are wired into ``repro validate`` (CLI, one table of checks next to
the topology and defense-transparency differentials), the overload
tests, and CI.
"""

from repro.validation.differential import (
    DifferentialReport,
    default_replay_cases,
    diff_replay_stats,
    validate_replay_differential,
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
    "DifferentialReport",
    "InvariantChecker",
    "InvariantError",
    "OVERLOAD_CONFIGS",
    "OverloadResult",
    "Violation",
    "default_replay_cases",
    "diff_replay_stats",
    "run_overload_scenario",
    "validate_overload",
    "validate_replay_differential",
]
