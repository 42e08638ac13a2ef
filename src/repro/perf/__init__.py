"""Performance infrastructure: the parallel sweep runner and the
sim-core workload builders.

* :mod:`repro.perf.parallel` — the sweep runner for Figure-5 style
  (scheme × cache-size × trial) grids, with per-spec seeds and an
  on-disk trace cache shared between workers,
* :mod:`repro.perf.simcore` — the star / tree / fat-tree packet-level
  workloads both simulation engines run.

Nothing here times anything: every performance number comes from the
perf ledger (``python3 benchmarks/ledger/run.py``, declared in
``BENCHMARK.json``).
"""

from repro.perf.parallel import (
    ReplaySpec,
    build_scheme,
    ensure_trace_cached,
    run_replay_sweep,
    trace_cache_dir,
)

__all__ = [
    "ReplaySpec",
    "build_scheme",
    "ensure_trace_cached",
    "run_replay_sweep",
    "trace_cache_dir",
]
