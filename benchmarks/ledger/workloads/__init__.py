"""The five workloads, by their normative names.

Loaded one at a time: a run imports only the ``repro`` modules its own
workload touches, so ``peak_rss_mb`` and ``setup_s`` are that workload's.
"""

from __future__ import annotations

from importlib import import_module
from typing import Type

from benchmarks.ledger.harness import Workload

_CLASSES = {
    "replay_stream": "ReplayStream",
    "fig5_grid": "Fig5Grid",
    "sim_packet": "SimPacket",
    "frontier_sweep": "FrontierSweep",
    "daemon_loopback": "DaemonLoopback",
}
NAMES = tuple(_CLASSES)


def load(name: str) -> Type[Workload]:
    module = import_module(f"benchmarks.ledger.workloads.{name}")
    return getattr(module, _CLASSES[name])
