"""Trace-cache integrity, and what a sweep does when a pool worker dies.

A TSV entry is checked against its ``.sha256`` sidecar and a shard
directory against its manifest's checksums; a truncated or corrupted
entry is regenerated, never replayed.  A worker that dies mid-sweep
raises :class:`SweepError` and leaves no child process behind.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import replace
from pathlib import Path

import pytest

import repro.perf.parallel as parallel
from repro.core.schemes.no_privacy import NoPrivacyScheme
from repro.perf.parallel import (
    ReplaySpec,
    SweepError,
    TraceCacheError,
    derive_seeds,
    ensure_trace_cached,
    run_replay_sweep,
    verify_trace_cache,
)
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator
from repro.workload.compiled import CompiledTrace
from repro.workload.sharded import ShardedCompiledTrace, compile_stream

#: The pid of the process that imported this module: pool workers differ.
_TEST_PID = os.getpid()


@pytest.fixture(scope="module")
def trace() -> CompiledTrace:
    return IrcacheGenerator(
        IrcacheConfig(requests=1200, objects=900, seed=13)
    ).generate()


def _specs(count=6):
    # FIFO keeps these points off the in-process LRU grid, so a pooled
    # sweep of them really starts workers.
    return [
        ReplaySpec(
            scheme="exponential",
            scheme_params={"k": 5, "epsilon": 0.005, "delta": 0.01},
            cache_size=150,
            policy="fifo",
            seed=seed,
            label=f"spec-{i}",
        )
        for i, seed in enumerate(derive_seeds(base_seed=99, count=count))
    ]


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    return tmp_path


class DiesInWorker(NoPrivacyScheme):
    """No-Privacy that kills any process but the test's own when a replay
    asks it for a kernel."""

    def make_kernel(self, names):
        if os.getpid() != _TEST_PID:
            os._exit(42)
        return super().make_kernel(names)


def test_a_dead_worker_raises_sweep_error_and_leaves_no_child(trace, cache_dir):
    specs = [
        ReplaySpec(scheme=DiesInWorker(), cache_size=150, policy="fifo", seed=seed)
        for seed in (1, 2)
    ]
    with pytest.raises(SweepError, match="a sweep worker died"):
        run_replay_sweep(specs, trace=trace, workers=2)
    assert multiprocessing.active_children() == []
    plain = [replace(spec, scheme=NoPrivacyScheme()) for spec in specs]
    assert run_replay_sweep(specs, trace=trace, workers=1) == run_replay_sweep(
        plain, trace=trace, workers=1
    )


class TestTraceCacheIntegrity:
    def test_corrupted_cache_entry_regenerated(self, cache_dir):
        config = IrcacheConfig(requests=400, objects=300, seed=21)
        path = ensure_trace_cached(config)
        good = path.read_bytes()
        assert verify_trace_cache(path)

        path.write_bytes(good[: len(good) // 2])  # truncation mid-file
        assert not verify_trace_cache(path)
        again = ensure_trace_cached(config)
        assert again == path
        assert verify_trace_cache(path)
        assert path.read_bytes() == good  # deterministic regeneration

    def test_missing_sidecar_treated_as_invalid(self, cache_dir):
        config = IrcacheConfig(requests=400, objects=300, seed=22)
        path = ensure_trace_cached(config)
        parallel._digest_sidecar(path).unlink()
        assert not verify_trace_cache(path)
        assert verify_trace_cache(ensure_trace_cached(config))

    def test_load_trace_refuses_corrupt_entry(self, cache_dir, monkeypatch):
        config = IrcacheConfig(requests=400, objects=300, seed=23)
        path = ensure_trace_cached(config)
        path.write_text("0.000\t0\t/poison\n", encoding="utf-8")  # stale sidecar
        monkeypatch.setattr(parallel, "_PROCESS_TRACES", {})
        with pytest.raises(TraceCacheError, match="digest"):
            parallel._load_trace(str(path))

    def test_oracle_fallback_reads_the_loaded_columns_not_the_file(
        self, cache_dir, monkeypatch
    ):
        """A kernel-less spec replays the loaded columns on the oracle, so
        an entry swapped out after loading cannot reach it."""

        class Opaque(NoPrivacyScheme):
            def make_kernel(self, names):
                return None

        config = IrcacheConfig(requests=400, objects=300, seed=25)
        path = str(ensure_trace_cached(config))
        monkeypatch.setattr(parallel, "_PROCESS_TRACES", {})
        loaded = parallel._load_trace(path)
        spec = ReplaySpec(scheme=Opaque(), cache_size=50)
        before = parallel._execute(loaded, spec, spec.scheme)
        assert before.requests == 400
        Path(path).write_text("0.000\t0\t/poison\n", encoding="utf-8")
        assert parallel._execute(loaded, spec, spec.scheme) == before

    def test_sweep_self_heals_poisoned_cache(self, trace, cache_dir, monkeypatch):
        """End-to-end: a corrupted cache file cannot poison sweep results."""
        config = IrcacheConfig(requests=400, objects=300, seed=24)
        specs = _specs(2)
        clean = run_replay_sweep(specs, trace_config=config, workers=1)

        path = ensure_trace_cached(config)
        path.write_text("0.000\t0\t/poison\n", encoding="utf-8")
        monkeypatch.setattr(parallel, "_PROCESS_TRACES", {})
        healed = run_replay_sweep(specs, trace_config=config, workers=1)
        assert healed == clean

    def test_adhoc_trace_cache_checksummed(self, cache_dir, trace):
        """A pooled sweep over an ad-hoc trace maps a ``trace-shards-*``
        entry; a corrupted entry is rebuilt, not replayed."""
        specs = _specs(2)
        clean = run_replay_sweep(specs, trace=trace, workers=2)
        (entry,) = (cache_dir / "traces").iterdir()
        assert entry.name.startswith("trace-shards-")
        ShardedCompiledTrace.open(entry).verify()
        (entry / "shard-00000.ids.npy").write_bytes(b"garbage")
        assert run_replay_sweep(specs, trace=trace, workers=2) == clean
        assert [p.name for p in (cache_dir / "traces").iterdir()] == [entry.name]
        ShardedCompiledTrace.open(entry).verify()

    def test_adhoc_pre_checksum_entry_adopted(self, cache_dir, trace):
        """An ad-hoc entry already in the cache, written outside any sweep,
        is adopted once it verifies: the sweep neither rebuilds nor
        rewrites it."""
        digest = parallel._trace_digest(trace)
        entry = cache_dir / "traces" / f"trace-shards-{digest[:16]}"
        compile_stream(trace, entry, source={"kind": "trace", "sha256": digest})
        before = {p.name: p.stat().st_mtime_ns for p in entry.iterdir()}
        specs = _specs(2)
        pooled = run_replay_sweep(specs, trace=trace, workers=2)
        assert pooled == run_replay_sweep(specs, trace=trace, workers=1)
        assert [p.name for p in (cache_dir / "traces").iterdir()] == [entry.name]
        assert {p.name: p.stat().st_mtime_ns for p in entry.iterdir()} == before
