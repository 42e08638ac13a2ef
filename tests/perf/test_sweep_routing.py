"""Where a sweep point runs: LRU grid points and every point over a
handed-in trace in the calling process, the rest of a config sweep on the
pool.

An eligible point (:func:`~repro.workload.lru_grid.runs_on_grid`) is an
array pass over the one trace the sweep loaded, so a sweep of only such
points starts no pool.  A handed-in trace starts no pool and writes
nothing to the trace cache at any worker count.  Neither route may show
in the results.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.perf.parallel as parallel
import repro.workload.lru_grid as lru_grid
from repro.analysis.experiments import run_fig5a, run_fig5b
from repro.core.schemes.grouping import NamespaceGrouping
from repro.core.schemes.registry import SchemeSpec
from repro.core.schemes.uniform import UniformRandomCache
from repro.perf.parallel import (
    ReplaySpec,
    ensure_sharded_trace_cached,
    ensure_trace_cached,
    run_replay_sweep,
)
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator
from repro.workload.marking import ContentMarking, RequestMarking
from repro.workload.sharded import ShardedCompiledTrace
from tests.perf.test_parallel import OpaqueNoPrivacy

CONFIG = IrcacheConfig(requests=1500, objects=1000, seed=7)


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    monkeypatch.setattr(parallel, "_PROCESS_TRACES", {})
    monkeypatch.setattr(parallel, "_PROCESS_SHARDED", {})
    return tmp_path / "traces"


@pytest.fixture()
def pools(monkeypatch):
    """Every ProcessPoolExecutor the sweep runner creates."""
    created = []
    real = parallel.ProcessPoolExecutor

    def counting(*args, **kwargs):
        created.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", counting)
    return created


@pytest.fixture()
def distance_passes(monkeypatch):
    calls = []
    real = lru_grid.stack_distances
    monkeypatch.setattr(
        lru_grid, "stack_distances", lambda *args: calls.append(1) or real(*args)
    )
    return calls


@pytest.mark.parametrize("source", ["tsv", "sharded", "adhoc"])
def test_an_all_eligible_fig5_pair_starts_no_pool(
    source, cache_dir, pools, distance_passes
):
    if source == "adhoc":
        workload, sharded = IrcacheGenerator(CONFIG).generate(), False
    else:
        workload, sharded = CONFIG, source == "sharded"
    fig5a = run_fig5a(workload, workers=2, sharded=sharded)
    fig5b = run_fig5b(workload, workers=2, sharded=sharded)
    assert pools == []
    assert distance_passes == [1]  # one trace loaded, one pass
    # And the in-process route is the serial one, bit for bit.
    assert fig5a.stats == run_fig5a(workload, workers=1, sharded=sharded).stats
    assert fig5b.stats == run_fig5b(workload, workers=1, sharded=sharded).stats


def test_grid_points_map_each_shard_once_per_trace(cache_dir, monkeypatch):
    """The distance pass reads the shards once; a ``ContentMarking`` grid
    point then gathers its flags from the memoised id column instead of
    mapping every shard again (12 x 4 more maps here if it did)."""
    loads = []
    real = ShardedCompiledTrace.load_shard

    def counting(self, index, verify=False):
        loads.append(index)
        return real(self, index, verify)

    monkeypatch.setattr(ShardedCompiledTrace, "load_shard", counting)
    marking = ContentMarking(0.3, salt=2)
    specs = [
        ReplaySpec(SchemeSpec(scheme), size, marking, seed=1)
        for scheme in ("no-privacy", "always-delay", "uniform", "exponential")
        for size in (50, 200, None)
    ]
    run_replay_sweep(specs, workers=2, trace_config=CONFIG, sharded=True, shard_size=400)
    assert loads == [0, 1, 2, 3]  # 1500 requests in shards of 400


def _mixed_specs():
    marking = ContentMarking(0.3, salt=2)
    grouped = UniformRandomCache(
        K=40, rng=np.random.default_rng(3), grouping=NamespaceGrouping(depth=1)
    )
    return [
        ReplaySpec(SchemeSpec("exponential"), 100, marking, seed=1),  # grid
        ReplaySpec(SchemeSpec("uniform"), 100, marking, policy="fifo", seed=2),
        ReplaySpec(SchemeSpec("no-privacy"), None, marking, seed=3),  # grid
        ReplaySpec(SchemeSpec("exponential"), 300, marking, policy="lfu", seed=4),
        ReplaySpec(SchemeSpec("uniform"), 100, marking, seed=5, refresh_delayed_hits=False),
        ReplaySpec(grouped, 100, marking, seed=6),
        ReplaySpec(SchemeSpec("naive-threshold"), 100, marking, seed=7),
        ReplaySpec(OpaqueNoPrivacy(), 100, marking, seed=8),
        ReplaySpec(SchemeSpec("always-delay"), 100, marking, policy="random", seed=9),
        ReplaySpec(SchemeSpec("uniform"), 50, RequestMarking(0.4, seed=3), seed=10),  # grid
        ReplaySpec(SchemeSpec("always-delay"), 1, marking, fetch_delay=0.1, seed=11),  # grid
    ]


@pytest.mark.parametrize("source", ["sharded", "adhoc", "tsv"])
def test_a_mixed_sweep_is_independent_of_its_route(source, cache_dir, pools):
    specs = _mixed_specs()
    kwargs = {
        "adhoc": {"trace": IrcacheGenerator(CONFIG).generate()},
        "sharded": {"trace_config": CONFIG, "sharded": True},
        "tsv": {"trace_config": CONFIG},
    }[source]
    serial = run_replay_sweep(specs, workers=1, **kwargs)
    assert pools == []
    pooled = run_replay_sweep(specs, workers=2, **kwargs)
    if source == "adhoc":
        # A handed-in trace runs every point here and caches nothing.
        assert pools == []
        assert not cache_dir.exists()
    else:
        assert pools == [1]  # the seven non-grid points went to one pool
    assert pooled == serial  # results in spec order, whichever route
    assert [stats.requests for stats in pooled] == [CONFIG.requests] * len(specs)


def test_workers_default_to_the_cpu_count(cache_dir, pools, monkeypatch):
    """``workers=None`` sizes the pool by the CPU count: on one CPU a
    config sweep's off-grid points run in this process, on two in a pool."""
    for cpus, started in ((1, []), (2, [1])):
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
        run_replay_sweep(_mixed_specs(), trace_config=CONFIG)
        assert pools == started


def test_the_process_memos_keep_one_trace_each(cache_dir):
    other = IrcacheConfig(requests=800, objects=600, seed=8)
    tsv = [str(ensure_trace_cached(config)) for config in (CONFIG, other)]
    shards = [str(ensure_sharded_trace_cached(config)) for config in (CONFIG, other)]
    for path in tsv:
        parallel._load_trace(path)
    for path in shards:
        parallel._load_sharded(path)
    assert list(parallel._PROCESS_TRACES) == [tsv[1]]
    assert list(parallel._PROCESS_SHARDED) == [shards[1]]
    assert parallel._load_trace(tsv[1]) is parallel._PROCESS_TRACES[tsv[1]]


def test_a_repeated_all_grid_sweep_verifies_the_held_entry_once(
    cache_dir, monkeypatch
):
    """A sharded sweep whose points are all grid points with memoised
    columns and flags reads no byte of the entry it holds open, so it does
    not checksum the entry again (three verifications over three sweeps if
    it did); a sweep that maps a shard still verifies first."""
    ensure_sharded_trace_cached(CONFIG)
    verified = []
    real = ShardedCompiledTrace.verify
    monkeypatch.setattr(
        ShardedCompiledTrace, "verify", lambda self: verified.append(1) or real(self)
    )
    sweeps = [run_fig5b(CONFIG, workers=1, sharded=True).stats for _ in range(3)]
    assert verified == [1]
    assert sweeps[0] == sweeps[1] == sweeps[2]
    unmarked = [ReplaySpec(SchemeSpec("no-privacy"), 100, None, seed=1)]  # maps the shards
    run_replay_sweep(unmarked, workers=1, trace_config=CONFIG, sharded=True)
    assert verified == [1, 1]
