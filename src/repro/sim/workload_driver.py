"""Drive the packet simulator from a streaming :class:`Workload`.

The bridge between the workload layer and the topology engines: requests
are pulled block by block from any :class:`~repro.workload.streaming.Workload`
and lowered straight into per-consumer
:class:`~repro.sim.batch.script.ConsumerScript` step lists — no
:class:`~repro.workload.streaming.Request` objects in between.  Because
the lowering consumes only the block columns (times / users / keys) and
the ``uris_of`` decoding, a streaming generator and its compiled trace
(``generate()``) produce **identical scripts**, which is what makes the
streaming-vs-compiled simulator differential a bit-identity check rather
than a statistical one.

Request-to-consumer assignment is ``user % len(consumers)`` (the same
face-hashing the defense suites use); each consumer's absolute request
times become relative :class:`SleepStep` gaps, so the script replays the
workload's arrival process on the simulated clock (optionally rescaled —
proxy-day traces are in wall-clock ms, far slower than a packet sim
needs).

The slot, gap and private-flag arithmetic runs per block on the numpy
columns, carrying each slot's clock and fetch count into the next block.
Steps are shared values: one :class:`FetchStep` per distinct (name,
private) pair, so a script is a tuple of references and the step guards
run once per distinct fetch; every positive gap is its own
:class:`SleepStep`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.sim.batch.script import ConsumerScript, FetchStep, SleepStep
from repro.workload.streaming import DEFAULT_CHUNK, Workload, unseen_uris


def scripts_from_workload(
    workload: Workload,
    consumers: Sequence[str],
    *,
    uri_prefix: str = "",
    time_scale: float = 1.0,
    timeout: float = 4000.0,
    lifetime: float = 4000.0,
    private_period: int = 0,
    chunk_size: Optional[int] = None,
) -> List[ConsumerScript]:
    """Lower a workload to one deterministic script per consumer.

    ``uri_prefix`` is prepended to every decoded name (topologies route a
    single producer prefix); ``time_scale`` multiplies request times
    before they become sleep gaps (use e.g. ``1e-3`` to compress a
    wall-clock-ms proxy day into simulated seconds).  ``private_period``
    > 0 marks every N-th fetch *of each consumer* private — a
    deterministic stand-in for request marking that both engines
    interpret identically.  The result depends only on the workload's
    request sequence, never on its chunking.
    """
    if not consumers:
        raise ValueError("need at least one consumer name")
    if time_scale <= 0:
        raise ValueError(f"time_scale must be > 0, got {time_scale}")
    fan_out = len(consumers)
    steps: List[List[object]] = [[] for _ in consumers]
    # A slot's clock is the latest request time it has slept to (never
    # below 0): a request at or before it gets no sleep step.
    clocks = np.zeros(fan_out)
    counts = np.zeros(fan_out, dtype=np.int64)
    # Keyed by content key * 2 + private: a key names one content.
    fetches: Dict[int, FetchStep] = {}
    uris: Dict[int, str] = {}
    # Native blocks can be a few hundred requests; the per-slot numpy
    # work below costs per block, so pull full-size blocks by default.
    if chunk_size is None:
        chunk_size = DEFAULT_CHUNK
    for block in workload.iter_blocks(chunk_size):
        fresh = unseen_uris(workload, block.keys, uris)
        uris.update((key, uri_prefix + uri) for key, uri in fresh)
        slots = block.users % fan_out
        at = block.times * time_scale
        gaps = np.empty_like(at)
        private = np.zeros(len(at), dtype=np.int64)
        order = np.argsort(slots, kind="stable")
        grouped = slots[order]
        starts = np.flatnonzero(np.diff(grouped, prepend=-1)).tolist()
        for start, end in zip(starts, starts[1:] + [len(order)]):
            mine = order[start:end]
            slot = grouped[start]
            # fmax skips NaN as the scalar clock update `at > clock` does.
            slept = np.fmax.accumulate(np.concatenate(([clocks[slot]], at[mine])))
            gaps[mine] = at[mine] - slept[:-1]
            clocks[slot] = slept[-1]
            if private_period > 0:
                nth = np.arange(counts[slot], counts[slot] + (end - start))
                private[mine] = nth % private_period == 0
            counts[slot] += end - start
        codes = block.keys * 2 + private
        for slot, gap, code in zip(slots.tolist(), gaps.tolist(), codes.tolist()):
            script = steps[slot]
            if gap > 0:
                script.append(SleepStep(gap))
            fetch = fetches.get(code)
            if fetch is None:
                fetch = fetches[code] = FetchStep(
                    uris[code >> 1], timeout, lifetime, bool(code & 1)
                )
            script.append(fetch)
    return [
        ConsumerScript(consumer=name, steps=tuple(step_list))
        for name, step_list in zip(consumers, steps)
    ]
