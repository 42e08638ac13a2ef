"""Drive the packet simulator from a streaming :class:`Workload`.

The bridge between the workload layer and the topology engines: requests
are pulled block by block from any :class:`~repro.workload.streaming.Workload`
and lowered straight into per-consumer
:class:`~repro.sim.batch.script.ConsumerScript` step lists — no
:class:`~repro.workload.streaming.Request` objects in between.  Because
the lowering consumes only the block columns (times / users / keys) and
the ``uri_of`` decoding, a streaming generator and its compiled trace
(``generate()``) produce **identical scripts**, which is what makes the
streaming-vs-compiled simulator differential a bit-identity check rather
than a statistical one.

Request-to-consumer assignment is ``user % len(consumers)`` (the same
face-hashing the defense suites use); each consumer's absolute request
times become relative :class:`SleepStep` gaps, so the script replays the
workload's arrival process on the simulated clock (optionally rescaled —
proxy-day traces are in wall-clock ms, far slower than a packet sim
needs).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.sim.batch.script import ConsumerScript, FetchStep, SleepStep
from repro.workload.streaming import Workload


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
    clocks = [0.0] * fan_out
    counts = [0] * fan_out
    uri_cache: Dict[int, str] = {}
    for block in workload.iter_blocks(chunk_size):
        times = block.times.tolist()
        users = block.users.tolist()
        keys = block.keys.tolist()
        for time, user, key in zip(times, users, keys):
            slot = user % fan_out
            uri = uri_cache.get(key)
            if uri is None:
                uri = uri_prefix + workload.uri_of(key)
                uri_cache[key] = uri
            at = time * time_scale
            gap = at - clocks[slot]
            if gap > 0:
                steps[slot].append(SleepStep(gap))
                clocks[slot] = at
            private = private_period > 0 and counts[slot] % private_period == 0
            counts[slot] += 1
            steps[slot].append(
                FetchStep(uri, timeout=timeout, lifetime=lifetime, private=private)
            )
    return [
        ConsumerScript(consumer=name, steps=tuple(step_list))
        for name, step_list in zip(consumers, steps)
    ]

