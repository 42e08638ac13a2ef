"""Shared fixtures for the figure benches.

The ``bench_*.py`` files regenerate the paper's figures, ablations and
extensions and assert their shapes; they write no files.  Performance
is measured by the ledger (``benchmarks/ledger``, ``BENCHMARK.json``).

Scale knobs (environment variables):

* ``REPRO_BENCH_REQUESTS`` — trace length for the Figure 5 replays
  (default 100000; the paper's trace had ~3.2M — results are stable from
  ~100k on, see EXPERIMENTS.md),
* ``REPRO_BENCH_TRIALS`` — measurement trials per Figure 3 panel
  (default 6),
* ``REPRO_BENCH_OBJECTS`` — probed objects per Figure 3 trial
  (default 60).
"""

from __future__ import annotations

import os

import pytest

from repro.workload.ircache import IrcacheConfig, IrcacheGenerator


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


BENCH_REQUESTS = _env_int("REPRO_BENCH_REQUESTS", 100_000)
BENCH_TRIALS = _env_int("REPRO_BENCH_TRIALS", 6)
BENCH_OBJECTS = _env_int("REPRO_BENCH_OBJECTS", 60)


@pytest.fixture(scope="session")
def ircache_trace():
    """The synthetic IRCache-style trace shared by every Figure 5 bench."""
    config = IrcacheConfig(requests=BENCH_REQUESTS, seed=2007)
    return IrcacheGenerator(config).generate()
