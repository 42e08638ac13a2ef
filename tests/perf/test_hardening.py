"""Failure-hardened sweep runner: worker death, stalls, checkpoint/resume,
and trace-cache integrity.

The chaos hooks (``REPRO_CHAOS_*_FLAG``) inject real faults into live
worker pools: a worker ``os._exit``s mid-sweep or hangs, and the runner
must deliver results bit-identical to an undisturbed run — the ISSUE's
acceptance criterion, guaranteed by specs carrying their own seeds.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.perf.parallel as parallel
from repro.core.schemes.no_privacy import NoPrivacyScheme
from repro.perf.checkpoint import SweepCheckpoint
from repro.perf.parallel import (
    ReplaySpec,
    SweepError,
    TraceCacheError,
    derive_seeds,
    ensure_trace_cached,
    resolve_max_restarts,
    resolve_spec_timeout,
    run_replay_sweep,
    verify_trace_cache,
)
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator
from repro.workload.replay import ReplayStats
from repro.workload.compiled import CompiledTrace
from repro.workload.sharded import ShardedCompiledTrace, compile_stream


@pytest.fixture(scope="module")
def trace() -> CompiledTrace:
    return IrcacheGenerator(
        IrcacheConfig(requests=1200, objects=900, seed=13)
    ).generate()


def _specs(count=6):
    return [
        ReplaySpec(
            scheme="exponential",
            scheme_params={"k": 5, "epsilon": 0.005, "delta": 0.01},
            cache_size=150,
            seed=seed,
            label=f"spec-{i}",
        )
        for i, seed in enumerate(derive_seeds(base_seed=99, count=count))
    ]


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    return tmp_path


class TestWorkerDeath:
    def test_killed_worker_yields_bit_identical_results(
        self, trace, cache_dir, tmp_path, monkeypatch
    ):
        """The acceptance criterion: kill a worker mid-sweep, get the same
        ReplayStats an uninterrupted run produces — at any worker count."""
        specs = _specs()
        baseline = run_replay_sweep(specs, trace=trace, workers=1)

        flag = tmp_path / "kill-one-worker"
        flag.touch()
        monkeypatch.setenv("REPRO_CHAOS_KILL_FLAG", str(flag))
        survived = run_replay_sweep(specs, trace=trace, workers=2)
        assert not flag.exists()  # a worker consumed the flag and died
        assert survived == baseline
        # The ad-hoc trace reached the workers through the shard store.
        entries = sorted(p.name for p in (tmp_path / "traces").iterdir())
        assert len(entries) == 1 and entries[0].startswith("trace-shards-")

        monkeypatch.delenv("REPRO_CHAOS_KILL_FLAG")
        assert run_replay_sweep(specs, trace=trace, workers=3) == baseline

    def test_restart_budget_exhaustion_raises(
        self, trace, cache_dir, tmp_path, monkeypatch
    ):
        flag = tmp_path / "kill-again"
        flag.touch()
        monkeypatch.setenv("REPRO_CHAOS_KILL_FLAG", str(flag))
        with pytest.raises(SweepError, match="pool restarts"):
            run_replay_sweep(
                _specs(4), trace=trace, workers=2, max_restarts=0
            )


class TestStallWatchdog:
    def test_hung_worker_detected_and_work_resubmitted(
        self, trace, cache_dir, tmp_path, monkeypatch
    ):
        specs = _specs(4)
        baseline = run_replay_sweep(specs, trace=trace, workers=1)
        flag = tmp_path / "hang-one-worker"
        flag.touch()
        monkeypatch.setenv("REPRO_CHAOS_HANG_FLAG", str(flag))
        recovered = run_replay_sweep(
            specs, trace=trace, workers=2, timeout=1.5
        )
        assert not flag.exists()
        assert recovered == baseline

    def test_timeout_resolution(self, monkeypatch):
        assert resolve_spec_timeout(5.0) == 5.0
        assert resolve_spec_timeout() is None
        monkeypatch.setenv("REPRO_SPEC_TIMEOUT", "2.5")
        assert resolve_spec_timeout() == 2.5
        with pytest.raises(ValueError):
            resolve_spec_timeout(0.0)

    def test_max_restarts_resolution(self, monkeypatch):
        assert resolve_max_restarts() == 3
        assert resolve_max_restarts(0) == 0
        monkeypatch.setenv("REPRO_SWEEP_RETRIES", "7")
        assert resolve_max_restarts() == 7
        with pytest.raises(ValueError):
            resolve_max_restarts(-1)


class TestCheckpointResume:
    def test_checkpoint_written_and_resumed_without_rework(
        self, trace, cache_dir, tmp_path, monkeypatch
    ):
        specs = _specs(5)
        ckpt = tmp_path / "sweep.ckpt"
        first = run_replay_sweep(
            specs, trace=trace, workers=1, checkpoint=ckpt
        )
        assert ckpt.exists()

        executed = []
        real_execute = parallel._execute

        def counting_execute(*args, **kwargs):
            executed.append(1)
            return real_execute(*args, **kwargs)

        monkeypatch.setattr(parallel, "_execute", counting_execute)
        resumed = run_replay_sweep(
            specs, trace=trace, workers=1, checkpoint=ckpt
        )
        assert executed == []  # every spec came from the checkpoint
        assert resumed == first

    def test_partial_checkpoint_reruns_only_the_tail(
        self, trace, cache_dir, tmp_path, monkeypatch
    ):
        specs = _specs(5)
        ckpt = tmp_path / "sweep.ckpt"
        full = run_replay_sweep(specs, trace=trace, workers=1, checkpoint=ckpt)

        # Simulate a sweep killed after 3 completions: rebuild a shorter file.
        lines = ckpt.read_text(encoding="utf-8").splitlines(keepends=True)
        ckpt.write_text("".join(lines[:4]), encoding="utf-8")  # header + 3

        executed = []
        real_execute = parallel._execute

        def counting_execute(*args, **kwargs):
            executed.append(1)
            return real_execute(*args, **kwargs)

        monkeypatch.setattr(parallel, "_execute", counting_execute)
        resumed = run_replay_sweep(specs, trace=trace, workers=1, checkpoint=ckpt)
        assert len(executed) == 2  # only the lost tail re-ran
        assert resumed == full

    def test_checkpoint_survives_worker_kill(
        self, trace, cache_dir, tmp_path, monkeypatch
    ):
        specs = _specs(5)
        baseline = run_replay_sweep(specs, trace=trace, workers=1)
        flag = tmp_path / "kill"
        flag.touch()
        monkeypatch.setenv("REPRO_CHAOS_KILL_FLAG", str(flag))
        ckpt = tmp_path / "chaos.ckpt"
        result = run_replay_sweep(
            specs, trace=trace, workers=2, checkpoint=ckpt
        )
        assert result == baseline
        assert ckpt.exists()
        # Reload through the real fingerprint path: all 5 results recorded.
        monkeypatch.delenv("REPRO_CHAOS_KILL_FLAG")
        resumed = run_replay_sweep(specs, trace=trace, workers=2, checkpoint=ckpt)
        assert resumed == baseline

    def test_foreign_fingerprint_is_discarded(self, tmp_path):
        path = tmp_path / "c.ckpt"
        mine = SweepCheckpoint(path, "fingerprint-a")
        mine.load()
        mine.append(0, ReplayStats(requests=1))
        assert SweepCheckpoint(path, "fingerprint-a").load() == {
            0: ReplayStats(requests=1)
        }
        assert SweepCheckpoint(path, "fingerprint-b").load() == {}
        # The foreign load reset the file for fingerprint-b.
        assert SweepCheckpoint(path, "fingerprint-b").load() == {}

    def test_truncated_tail_keeps_intact_prefix(self, tmp_path):
        path = tmp_path / "c.ckpt"
        zero, one, two = (ReplayStats(requests=n) for n in (10, 11, 12))
        ckpt = SweepCheckpoint(path, "fp")
        ckpt.load()
        ckpt.append(0, zero)
        ckpt.append(1, one)
        intact = path.stat().st_size
        ckpt.append(2, two)
        with path.open("r+b") as handle:  # chop the last record in half
            handle.truncate(intact + 3)
        assert SweepCheckpoint(path, "fp").load() == {0: zero, 1: one}
        # And the file was repaired: appends keep working.
        repaired = SweepCheckpoint(path, "fp")
        repaired.load()
        repaired.append(2, ReplayStats(requests=99))
        assert SweepCheckpoint(path, "fp").load() == {
            0: zero, 1: one, 2: ReplayStats(requests=99),
        }

    def test_garbage_file_restarts_clean(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"not a pickle stream at all")
        assert SweepCheckpoint(path, "fp").load() == {}

    def test_a_record_that_is_not_replay_stats_is_damage(
        self, trace, cache_dir, tmp_path
    ):
        """A checksummed record must still be ``(int, ReplayStats)``."""
        specs = _specs(2)
        ckpt = tmp_path / "sweep.ckpt"
        fresh = run_replay_sweep(specs, trace=trace, workers=1, checkpoint=ckpt)
        header = ckpt.read_text(encoding="utf-8").splitlines()[0]
        body = json.dumps([0, "junk"])
        junk = f"{hashlib.sha256(body.encode()).hexdigest()} {body}"
        ckpt.write_text(f"{header}\n{junk}\n", encoding="utf-8")
        assert run_replay_sweep(specs, trace=trace, workers=1, checkpoint=ckpt) == fresh


def _edited(data: bytes, edit) -> bytes:
    kind, at, byte = edit
    at = min(at, len(data))
    if kind == "replace" and at < len(data):
        return data[:at] + bytes([byte]) + data[at + 1 :]
    if kind == "delete":
        return data[:at] + data[at + 1 :]
    return data[:at] + bytes([byte]) + data[at:]


_EDITS = st.tuples(
    st.sampled_from(["replace", "delete", "insert"]),
    st.integers(0, 4096),
    st.integers(0, 255),
)


@settings(max_examples=60, deadline=None)
@given(edit=_EDITS)
def test_any_single_edit_of_a_checkpoint_fails_closed(edit):
    """One byte replaced, deleted or inserted anywhere in a complete
    checkpoint: the resumed sweep equals a fresh run, because a damaged
    record is recomputed rather than returned."""
    trace = IrcacheGenerator(IrcacheConfig(requests=300, objects=200, seed=31)).generate()
    specs = _specs(3)
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "sweep.ckpt"
        fresh = run_replay_sweep(specs, trace=trace, workers=1, checkpoint=ckpt)
        ckpt.write_bytes(_edited(ckpt.read_bytes(), edit))
        resumed = run_replay_sweep(specs, trace=trace, workers=1, checkpoint=ckpt)
        assert resumed == fresh
        # And the file was repaired: it now holds every result.
        fingerprint = ckpt.read_text(encoding="utf-8").split("\n")[0].split(" ")[1]
        assert SweepCheckpoint(ckpt, fingerprint).load() == dict(enumerate(fresh))


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
        before = parallel._execute(loaded, spec)
        assert before.requests == 400
        Path(path).write_text("0.000\t0\t/poison\n", encoding="utf-8")
        assert parallel._execute(loaded, spec) == before

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
