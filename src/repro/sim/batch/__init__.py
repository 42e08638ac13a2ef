"""Struct-of-arrays batch simulation kernel (``repro.sim.batch``).

Runs the packet-level topologies ~an order of magnitude faster than the
reference object-graph engine, with **bit-identical observables**.  The
reference engine stays the oracle: :func:`run_scripts` compiles the
topology when it can and transparently falls back to the reference path
when it cannot (mirroring the
:meth:`~repro.core.schemes.base.CacheScheme.make_kernel` pattern).

Public surface:

* :class:`~repro.sim.batch.script.FetchStep` /
  :class:`~repro.sim.batch.script.SleepStep` /
  :class:`~repro.sim.batch.script.ConsumerScript` — declarative consumer
  workloads both engines can interpret,
* :func:`~repro.sim.batch.script.run_scripts_reference` — the oracle,
* :func:`~repro.sim.batch.kernel.run_scripts_batch` — the fast kernel
  (raises :class:`~repro.sim.batch.compile.BatchCompileError` when the
  topology cannot be lowered),
* :func:`run_scripts` — batch with transparent reference fallback,
* :class:`~repro.sim.batch.script.NetworkSpentError` — what every entry
  point raises for a network the batch kernel already ran.
"""

from __future__ import annotations

from typing import List, Optional

from repro.ndn.network import Network
from repro.sim.batch.compile import BatchCompileError, compile_topology
from repro.sim.batch.kernel import run_compiled, run_scripts_batch
from repro.sim.batch.script import (
    ConsumerScript,
    FetchStep,
    NetworkSpentError,
    SleepStep,
    TopologyObservables,
    diff_observables,
    run_scripts_reference,
)

__all__ = [
    "BatchCompileError",
    "ConsumerScript",
    "FetchStep",
    "NetworkSpentError",
    "SleepStep",
    "TopologyObservables",
    "compile_topology",
    "diff_observables",
    "run_compiled",
    "run_scripts",
    "run_scripts_batch",
    "run_scripts_reference",
]


def run_scripts(
    net: Network,
    scripts: List[ConsumerScript],
    kernel: str = "auto",
) -> TopologyObservables:
    """Run ``scripts`` over ``net`` on the requested engine.

    ``kernel`` is ``"auto"`` (batch when the topology lowers, reference
    otherwise — never raises for unsupported combinations),
    ``"batch"`` (raise :class:`BatchCompileError` when unsupported), or
    ``"reference"``.  Every kernel refuses a network the batch kernel
    already ran with :class:`NetworkSpentError` (``"auto"`` included: it
    is not a compile refusal).  The returned observables carry the engine
    actually used in :attr:`TopologyObservables.kernel` — and, after a
    fallback, the compiler's reason in
    :attr:`TopologyObservables.fallback_reason` — so callers can assert on
    (or log) fallbacks without ever getting silently divergent numbers.
    """
    if kernel == "reference":
        return run_scripts_reference(net, scripts)
    if kernel == "batch":
        return run_scripts_batch(net, scripts)
    if kernel != "auto":
        raise ValueError(
            f"unknown kernel {kernel!r}; use 'auto', 'batch', or 'reference'"
        )
    try:
        compiled = compile_topology(net, scripts)
    except BatchCompileError as refused:
        observed = run_scripts_reference(net, scripts)
        observed.fallback_reason = str(refused)
        return observed
    return run_compiled(compiled)
