"""Ablation — cache replacement policy under the Figure 5 replay.

The paper fixes LRU ("removes elements ... according to the LRU policy");
this ablation quantifies how much that choice matters for the reported
hit rates by sweeping LRU / LFU / FIFO / Random at two cache sizes,
through :func:`repro.perf.parallel.run_replay_sweep` on the fast-replay
kernel.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import format_table
from repro.perf.parallel import ReplaySpec, run_replay_sweep
from repro.workload.marking import ContentMarking

POLICIES = ("lru", "lfu", "fifo", "random")
SIZES = (4000, 16000)


def test_replacement_policy_ablation(benchmark, ircache_trace):
    specs = [
        ReplaySpec(
            scheme="exponential",
            scheme_params={"k": 5, "epsilon": 0.005, "delta": 0.01},
            cache_size=size,
            marking=ContentMarking(0.2),
            policy=policy,
            label=policy,
        )
        for policy in POLICIES
        for size in SIZES
    ]

    def sweep():
        stats = run_replay_sweep(specs, trace=ircache_trace)
        return [
            [spec.label, spec.cache_size, 100 * s.hit_rate, s.evictions]
            for spec, s in zip(specs, stats)
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(format_table(
        ["policy", "cache_size", "hit rate %", "evictions"], rows,
        title="Ablation: replacement policy (Exponential-Random-Cache, 20% private)",
    ))

    by_policy = {
        policy: [r[2] for r in rows if r[0] == policy] for policy in POLICIES
    }
    evictions = {
        policy: [r[3] for r in rows if r[0] == policy] for policy in POLICIES
    }
    # Recency/frequency-aware policies must beat blind ones on a Zipf
    # workload.  Only sizes under eviction pressure discriminate: until
    # the cache has turned over once (more evictions than slots) the
    # victims are first-pass objects nobody re-requests and every policy
    # ties, as at the 5k-request smoke scale.
    contested = [
        i for i, size in enumerate(SIZES) if evictions["fifo"][i] > size
    ]
    if len(ircache_trace) >= 100_000:
        assert contested == list(range(len(SIZES))), "shrink SIZES"
    for i in contested:
        assert by_policy["lru"][i] > by_policy["fifo"][i]
        assert by_policy["lru"][i] > by_policy["random"][i]
    # All policies still show the headline cache-size trend, strictly so
    # once the smaller size is contested.
    for policy in POLICIES:
        small, large = by_policy[policy]
        assert small < large if 0 in contested else small <= large
