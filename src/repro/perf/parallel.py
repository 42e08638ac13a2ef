"""Parallel sweep runner for trace-replay experiment grids.

Every evaluation figure replays the same trace once per (scheme,
cache-size, trial) point; the points are embarrassingly parallel.  This
module fans them across a :class:`~concurrent.futures.ProcessPoolExecutor`
while keeping results **independent of the worker count**:

* each sweep point is a picklable :class:`ReplaySpec` carrying its own
  seed; trial seeds come from :func:`derive_seeds`
  (``np.random.SeedSequence.spawn``), so the RNG stream of a point never
  depends on which worker ran it or in what order,
* results are collected by spec index, returned in spec order,
* workers obtain the trace from an on-disk cache instead of regenerating
  or unpickling it per task: a generated trace keyed by the
  :class:`~repro.workload.ircache.IrcacheConfig` hash (a TSV file or a
  shard directory), any other workload compiled into a shard directory
  keyed by the sha256 of its compiled columns,
* the serial fallback (``REPRO_WORKERS=1``, or a single spec) round-trips
  each spec through pickle so scheme/marking state is isolated exactly as
  process transport would isolate it — bit-identical to any worker count.

The runner is **failure-hardened** (see ``tests/perf/test_hardening.py``):

* worker death (``BrokenProcessPool``) and stalls (no spec completing
  within ``timeout`` seconds) tear the pool down and resubmit the
  incomplete specs on a fresh pool, bounded by ``max_restarts``; because
  seeds travel with the specs, a crash-recovered sweep is bit-identical
  to an undisturbed one,
* ``checkpoint=`` persists each completed point to disk
  (:class:`~repro.perf.checkpoint.SweepCheckpoint`); a killed sweep
  resumes from its completed specs,
* trace-cache entries are verified before use — a TSV entry against its
  ``.sha256`` sidecar, a shard directory against its manifest's per-file
  checksums — and a truncated or corrupted entry is regenerated instead
  of silently poisoning the whole sweep.

Environment knobs:

* ``REPRO_WORKERS`` — worker-process count (default: CPU count; ``1``
  forces the in-process serial path),
* ``REPRO_TRACE_CACHE`` — trace cache directory (default:
  ``~/.cache/repro/traces``),
* ``REPRO_SPEC_TIMEOUT`` — stall watchdog in wall-clock seconds: if no
  spec completes for this long, the pool is presumed hung and rebuilt
  (default: disabled),
* ``REPRO_SWEEP_RETRIES`` — maximum pool rebuilds per sweep before
  :class:`SweepError` (default 3),
* ``REPRO_CHAOS_KILL_FLAG`` / ``REPRO_CHAOS_HANG_FLAG`` — chaos-testing
  hooks: a path to a flag file; the first worker task to observe the file
  removes it and kills itself (``os._exit``) or hangs, letting CI rehearse
  the recovery paths against a live pool.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set, Union

import numpy as np

from repro.core.schemes.always_delay import AlwaysDelayScheme
from repro.core.schemes.base import CacheScheme
from repro.core.schemes.exponential import ExponentialRandomCache
from repro.core.schemes.naive_threshold import NaiveThresholdScheme
from repro.core.schemes.no_privacy import NoPrivacyScheme
from repro.core.schemes.uniform import UniformRandomCache
from repro.perf.checkpoint import SweepCheckpoint
from repro.workload.compiled import CompiledTrace
from repro.workload.fast_replay import fast_replay
from repro.workload.ircache import (
    IRCACHE_ALGORITHM_VERSION,
    SAMPLING_BLOCK,
    IrcacheConfig,
    IrcacheGenerator,
)
from repro.workload.marking import MarkingRule
from repro.workload.replay import ReplayStats
from repro.workload.sharded import (
    DEFAULT_SHARD_SIZE,
    ShardedCompiledTrace,
    ShardIntegrityError,
    compile_stream,
    compile_workload,
    file_sha256,
)
from repro.workload.streaming import TsvWorkload, Workload, save_tsv

ENV_WORKERS = "REPRO_WORKERS"
ENV_TRACE_CACHE = "REPRO_TRACE_CACHE"
ENV_SPEC_TIMEOUT = "REPRO_SPEC_TIMEOUT"
ENV_SWEEP_RETRIES = "REPRO_SWEEP_RETRIES"
ENV_CHAOS_KILL_FLAG = "REPRO_CHAOS_KILL_FLAG"
ENV_CHAOS_HANG_FLAG = "REPRO_CHAOS_HANG_FLAG"


class SweepError(RuntimeError):
    """The sweep could not complete within its failure budget."""


class TraceCacheError(RuntimeError):
    """A trace-cache entry failed its integrity check."""


# ======================================================================
# Scheme registry (picklable sweep points reference schemes by name)
# ======================================================================
def _build_no_privacy(rng: np.random.Generator, **_: object) -> CacheScheme:
    return NoPrivacyScheme()


def _build_always_delay(rng: np.random.Generator, **_: object) -> CacheScheme:
    return AlwaysDelayScheme()


def _build_uniform(
    rng: np.random.Generator, *, k: int = 5, delta: float = 0.01, **_: object
) -> CacheScheme:
    return UniformRandomCache.for_privacy_target(k, delta, rng=rng)


def _build_exponential(
    rng: np.random.Generator,
    *,
    k: int = 5,
    epsilon: float = 0.005,
    delta: float = 0.01,
    **_: object,
) -> CacheScheme:
    return ExponentialRandomCache.for_privacy_target(k, epsilon, delta, rng=rng)


def _build_naive_threshold(
    rng: np.random.Generator, *, k: int = 5, **_: object
) -> CacheScheme:
    return NaiveThresholdScheme(k, rng=rng)


SCHEME_BUILDERS: Dict[str, Callable[..., CacheScheme]] = {
    "no-privacy": _build_no_privacy,
    "always-delay": _build_always_delay,
    "uniform": _build_uniform,
    "exponential": _build_exponential,
    "naive-threshold": _build_naive_threshold,
}


def build_scheme(name: str, seed: int = 0, **params: object) -> CacheScheme:
    """Build a scheme by registry name with an RNG seeded from ``seed``."""
    try:
        builder = SCHEME_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; choose from {sorted(SCHEME_BUILDERS)}"
        ) from None
    return builder(np.random.default_rng(seed), **params)


# ======================================================================
# Sweep points
# ======================================================================
@dataclass(frozen=True)
class ReplaySpec:
    """One sweep point: everything one replay task needs, picklable.

    ``scheme`` is either a registry name (built in the worker with an RNG
    seeded from ``seed`` — the recommended form) or a ready
    :class:`CacheScheme` instance (pickled to the worker; its RNG state
    travels with it).
    """

    scheme: Union[str, CacheScheme]
    scheme_params: Mapping[str, object] = field(default_factory=dict)
    cache_size: Optional[int] = None
    marking: Optional[MarkingRule] = None
    policy: str = "lru"
    fetch_delay: float = 100.0
    seed: int = 0
    refresh_delayed_hits: bool = True
    #: Free-form tag echoed back with results (e.g. a figure-series key).
    label: str = ""


def derive_seeds(base_seed: int, count: int) -> List[int]:
    """``count`` statistically independent task seeds from one base seed.

    Uses ``np.random.SeedSequence.spawn`` so the seeds are stable across
    runs, platforms, and worker counts.
    """
    children = np.random.SeedSequence(base_seed).spawn(count)
    return [int(child.generate_state(1, np.uint32)[0]) for child in children]


def resolve_workers(workers: Optional[int] = None) -> int:
    """Effective worker count: explicit arg, else ``REPRO_WORKERS``, else
    the CPU count."""
    if workers is None:
        env = os.environ.get(ENV_WORKERS)
        workers = int(env) if env else (os.cpu_count() or 1)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def _env_float(name: str) -> Optional[float]:
    value = os.environ.get(name)
    return float(value) if value else None


def resolve_spec_timeout(timeout: Optional[float] = None) -> Optional[float]:
    """Stall-watchdog seconds: explicit arg, else ``REPRO_SPEC_TIMEOUT``,
    else disabled."""
    if timeout is None:
        timeout = _env_float(ENV_SPEC_TIMEOUT)
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be > 0 seconds, got {timeout}")
    return timeout


def resolve_max_restarts(max_restarts: Optional[int] = None) -> int:
    """Pool-rebuild budget: explicit arg, else ``REPRO_SWEEP_RETRIES``,
    else 3."""
    if max_restarts is None:
        env = os.environ.get(ENV_SWEEP_RETRIES)
        max_restarts = int(env) if env else 3
    if max_restarts < 0:
        raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
    return max_restarts


# ======================================================================
# On-disk trace cache (content-checksummed)
# ======================================================================
def trace_cache_dir() -> Path:
    """The trace cache directory (created on first use)."""
    env = os.environ.get(ENV_TRACE_CACHE)
    if env:
        root = Path(env)
    else:
        root = Path.home() / ".cache" / "repro" / "traces"
    root.mkdir(parents=True, exist_ok=True)
    return root


def _config_key(
    config: IrcacheConfig,
    layout: str = "tsv",
    shard_size: Optional[int] = None,
) -> str:
    """Full generator-config fingerprint for one cache entry.

    Keys on every config field **plus** the generation-algorithm version,
    its internal sampling-block size, the on-disk layout, and the shard
    size — so a sharded and a TSV entry of the same config can never
    collide, and a generator-algorithm change can never serve a stale
    entry.
    """
    payload = repr(
        (
            sorted(
                (name, getattr(config, name))
                for name in config.__dataclass_fields__
            ),
            ("algorithm", IRCACHE_ALGORITHM_VERSION),
            ("sampling_block", SAMPLING_BLOCK),
            ("layout", layout),
            ("shard_size", shard_size),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _atomic_write(path: Path, writer: Callable[[Path], None]) -> None:
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    os.close(fd)
    tmp = Path(tmp_name)
    try:
        writer(tmp)
        tmp.replace(path)
    finally:
        if tmp.exists():
            tmp.unlink()


def _digest_sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".sha256")


def _write_digest(path: Path) -> None:
    digest = file_sha256(path)
    _atomic_write(
        _digest_sidecar(path), lambda tmp: tmp.write_text(digest, encoding="utf-8")
    )


def verify_trace_cache(path: Union[str, Path]) -> bool:
    """True iff the cache entry exists and matches its recorded digest.

    A missing sidecar counts as invalid: an entry whose integrity cannot
    be established is treated the same as a corrupted one and the caller
    regenerates it.
    """
    path = Path(path)
    sidecar = _digest_sidecar(path)
    if not path.exists() or not sidecar.exists():
        return False
    recorded = sidecar.read_text(encoding="utf-8").strip()
    return bool(recorded) and recorded == file_sha256(path)


def ensure_trace_cached(config: IrcacheConfig) -> Path:
    """Generate-or-reuse the trace for ``config``; returns the TSV path.

    Keyed by a hash of the config fields, so workers (and later runs of
    the same sweep) load the trace instead of regenerating it.  The entry
    is digest-verified first; a corrupted or unverifiable file is
    regenerated in place (the config makes regeneration deterministic),
    written straight from the generator stream
    (:func:`~repro.workload.streaming.save_tsv`), never held in RAM.
    """
    path = trace_cache_dir() / f"ircache-{_config_key(config)}.tsv"
    if not verify_trace_cache(path):
        stream = IrcacheGenerator(config).stream()
        _atomic_write(path, lambda tmp: save_tsv(stream, tmp))
        _write_digest(path)
    return path


def _ensure_shard_entry(name: str, build: Callable[[Path], object]) -> Path:
    """The shard directory ``name`` in the trace cache, built by
    ``build(staging)`` unless an entry there passes its checksums.

    A corrupted entry is deleted and rebuilt.  The build lands in a
    staging directory and is renamed into place, so a killed build never
    leaves a half-written entry under the cache key.
    """
    path = trace_cache_dir() / name
    if path.is_dir():
        try:
            ShardedCompiledTrace.open(path).verify()
            return path
        except (ShardIntegrityError, OSError, ValueError):
            shutil.rmtree(path, ignore_errors=True)
    staging = Path(
        tempfile.mkdtemp(dir=str(trace_cache_dir()), prefix=f".build-{name}-")
    )
    try:
        build(staging)
        try:
            os.replace(staging, path)
        except OSError:
            # Lost a build race: keep the winner if it verifies.
            ShardedCompiledTrace.open(path).verify()
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return path


def ensure_sharded_trace_cached(
    config: IrcacheConfig, shard_size: int = DEFAULT_SHARD_SIZE
) -> Path:
    """Generate-or-reuse the **sharded** compiled trace for ``config``.

    Returns the shard-directory path.  The workload is streamed straight
    into the sharded format (:func:`~repro.workload.sharded.compile_stream`)
    so the cache build itself never holds the full trace in RAM — peak
    RSS stays bounded by one shard.  The config makes a rebuild of a
    corrupted entry deterministic.
    """
    key = _config_key(config, layout="sharded", shard_size=shard_size)
    source = {
        "kind": "ircache",
        "config_key": key,
        "algorithm_version": IRCACHE_ALGORITHM_VERSION,
    }
    return _ensure_shard_entry(
        f"ircache-shards-{key}",
        lambda staging: compile_stream(
            IrcacheGenerator(config).stream(), staging, shard_size, source=source
        ),
    )


def _trace_digest(compiled: CompiledTrace) -> str:
    """sha256 over a compiled trace's columns and name table (the
    occurrence columns follow from the ids)."""
    digest = hashlib.sha256()
    for column in (compiled.ids, compiled.times, compiled.users):
        digest.update(column.tobytes())
    for uri in compiled.iter_uris():
        digest.update(uri.encode("utf-8") + b"\n")
    return digest.hexdigest()


#: Per-process memo of compiled TSV entries, so each worker pays the
#: parse + intern cost once per trace, not once per task.
_PROCESS_TRACES: Dict[str, CompiledTrace] = {}


def _load_trace(path: str) -> CompiledTrace:
    """The TSV cache entry at ``path``, digest-checked, compiled in RAM by
    ``compile_workload(TsvWorkload(path))``: columns and the entry's URI
    list, with no ``Request`` and no interned ``Name``."""
    if path not in _PROCESS_TRACES:
        if not verify_trace_cache(path):
            raise TraceCacheError(
                f"trace cache entry {path} failed its digest check "
                "(truncated or corrupted); regenerate it via "
                "ensure_trace_cached() before dispatching workers"
            )
        _PROCESS_TRACES[path] = compile_workload(TsvWorkload(path))
    return _PROCESS_TRACES[path]


#: Per-process memo of opened shard directories.  Opening only maps the
#: manifest + name table; shard arrays stay on disk until replay touches
#: them, so the memo costs O(n_names) per trace, not O(n_requests).
_PROCESS_SHARDED: Dict[str, ShardedCompiledTrace] = {}


def _load_sharded(path: str) -> ShardedCompiledTrace:
    sharded = _PROCESS_SHARDED.get(path)
    if sharded is None:
        try:
            sharded = ShardedCompiledTrace.open(path)
        except (ShardIntegrityError, OSError, ValueError) as error:
            raise TraceCacheError(
                f"sharded trace cache entry {path} is unreadable or failed "
                "its integrity check; regenerate it before dispatching workers"
            ) from error
        _PROCESS_SHARDED[path] = sharded
    return sharded


# ======================================================================
# Execution
# ======================================================================
def _execute(trace: CompiledTrace, spec: ReplaySpec) -> ReplayStats:
    scheme = spec.scheme
    if isinstance(scheme, str):
        scheme = build_scheme(scheme, seed=spec.seed, **dict(spec.scheme_params))
    return fast_replay(
        trace,
        scheme=scheme,
        marking=spec.marking,
        cache_size=spec.cache_size,
        policy=spec.policy,
        fetch_delay=spec.fetch_delay,
        seed=spec.seed,
        refresh_delayed_hits=spec.refresh_delayed_hits,
    )


def _consume_chaos_flag(env: str) -> bool:
    """True iff this process won the race to consume the chaos flag file."""
    flag = os.environ.get(env)
    if not flag:
        return False
    path = Path(flag)
    try:
        path.unlink()  # atomic: exactly one worker wins
        return True
    except FileNotFoundError:
        return False


def _maybe_inject_chaos() -> None:
    """Worker-side chaos hooks for rehearsing the recovery paths."""
    if _consume_chaos_flag(ENV_CHAOS_KILL_FLAG):
        os._exit(42)
    if _consume_chaos_flag(ENV_CHAOS_HANG_FLAG):
        time.sleep(3600.0)


def _worker_run(args: tuple) -> ReplayStats:
    trace_path, spec, layout = args
    _maybe_inject_chaos()
    load = _load_sharded if layout == "sharded" else _load_trace
    return _execute(load(trace_path), spec)


class _SweepStalled(RuntimeError):
    """No spec completed within the stall-watchdog window."""


def _drain_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without joining hung or dead workers."""
    procs = getattr(pool, "_processes", None)
    processes = list(procs.values()) if procs else []
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        if process.is_alive():
            process.terminate()


def _run_hardened(
    tasks: List[tuple],
    remaining: Set[int],
    workers: int,
    timeout: Optional[float],
    max_restarts: int,
    deliver: Callable[[int, ReplayStats], None],
) -> None:
    """Run ``tasks[i]`` for every ``i`` in ``remaining``, surviving worker
    death and stalls by resubmitting on a fresh pool (bounded)."""
    restarts = 0
    while remaining:
        pool = ProcessPoolExecutor(max_workers=min(workers, len(remaining)))
        try:
            futures = {
                pool.submit(_worker_run, tasks[index]): index
                for index in sorted(remaining)
            }
            pending = set(futures)
            while pending:
                done, pending = wait(
                    pending, timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    raise _SweepStalled(
                        f"no sweep point completed within {timeout}s "
                        f"({len(pending)} outstanding)"
                    )
                for future in done:
                    index = futures[future]
                    stats = future.result()  # BrokenProcessPool on worker death
                    deliver(index, stats)
                    remaining.discard(index)
        except (BrokenProcessPool, _SweepStalled) as exc:
            restarts += 1
            if restarts > max_restarts:
                raise SweepError(
                    f"sweep failed permanently after {restarts} pool restarts "
                    f"({len(remaining)} specs incomplete): {exc}"
                ) from exc
        finally:
            _drain_pool(pool)


def _sweep_fingerprint(spec_list: List[ReplaySpec], trace_key: str) -> str:
    digest = hashlib.sha256()
    digest.update(trace_key.encode("utf-8"))
    for spec in spec_list:
        digest.update(pickle.dumps(spec))
    return digest.hexdigest()


def run_replay_sweep(
    specs: Iterable[ReplaySpec],
    trace: Optional[Workload] = None,
    trace_config: Optional[IrcacheConfig] = None,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    max_restarts: Optional[int] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    sharded: bool = False,
    shard_size: int = DEFAULT_SHARD_SIZE,
) -> List[ReplayStats]:
    """Run every sweep point; results in spec order.

    Exactly one of ``trace`` / ``trace_config`` supplies the workload.
    With ``trace_config`` the workload goes through the on-disk cache.
    Any other workload ``trace`` is compiled once (a compiled trace as it
    is) and replayed in process by one worker; for more, it is written
    into the shard store under the sha256 of its compiled columns
    (``trace-shards-<digest>``) and workers map it.

    ``sharded=True`` (requires ``trace_config``) routes the sweep through
    the memory-mapped sharded trace cache instead of the TSV one: the
    cache is built by streaming generation (the trace is never held in
    RAM) and each worker replays shard by shard, so worker RSS is bounded
    by one shard plus O(n_names) state rather than the whole request log.
    Results are bit-identical to the TSV path.

    Every point runs on :func:`~repro.workload.fast_replay.fast_replay`
    (the interned kernel, bit-identical to the reference ``replay()``).
    Results are independent of ``workers``, because every spec carries
    its own seed and schemes are isolated per task (pickle round-trip in
    the serial path, process transport otherwise).

    Failure handling (parallel path): a dead worker or a stall longer
    than ``timeout`` seconds rebuilds the pool and resubmits the
    incomplete specs, at most ``max_restarts`` times; the per-spec seeds
    make recovered results identical to an undisturbed run.
    ``checkpoint`` names a file to persist completed points to, so a
    killed sweep resumes from where it died (a checkpoint written by a
    different sweep is detected by fingerprint and ignored).
    """
    if (trace is None) == (trace_config is None):
        raise ValueError("provide exactly one of trace= or trace_config=")
    if sharded and trace_config is None:
        raise ValueError("sharded sweeps require trace_config=")
    spec_list = list(specs)
    if not spec_list:
        return []
    count = len(spec_list)
    workers = min(resolve_workers(workers), count)
    timeout = resolve_spec_timeout(timeout)
    max_restarts = resolve_max_restarts(max_restarts)

    layout = "sharded" if sharded or trace is not None else "tsv"
    if trace is not None:
        trace = compile_workload(trace)
        digest = _trace_digest(trace)
        trace_key = f"trace:{digest}"
    else:
        key = _config_key(
            trace_config, layout=layout, shard_size=shard_size if sharded else None
        )
        trace_key = f"config:{layout}:{key}"

    completed: Dict[int, ReplayStats] = {}
    sweep_checkpoint: Optional[SweepCheckpoint] = None
    if checkpoint is not None:
        sweep_checkpoint = SweepCheckpoint(
            checkpoint, _sweep_fingerprint(spec_list, trace_key)
        )
        completed = {
            index: stats
            for index, stats in sweep_checkpoint.load().items()
            if 0 <= index < count
        }

    def deliver(index: int, stats: ReplayStats) -> None:
        completed[index] = stats
        if sweep_checkpoint is not None:
            sweep_checkpoint.append(index, stats)

    if workers <= 1:
        if trace is not None:
            workload: CompiledTrace = trace
        elif sharded:
            workload = _load_sharded(
                str(ensure_sharded_trace_cached(trace_config, shard_size))
            )
        else:
            workload = _load_trace(str(ensure_trace_cached(trace_config)))
        # Pickle round-trip each spec so scheme/marking RNG state is
        # isolated exactly as process transport isolates it.
        for index, spec in enumerate(spec_list):
            if index in completed:
                continue
            deliver(index, _execute(workload, pickle.loads(pickle.dumps(spec))))
        return [completed[index] for index in range(count)]

    if trace is not None:
        source = {"kind": "trace", "sha256": digest}
        path = _ensure_shard_entry(
            f"trace-shards-{digest[:16]}",
            lambda staging: compile_stream(trace, staging, shard_size, source=source),
        )
    elif sharded:
        path = ensure_sharded_trace_cached(trace_config, shard_size)
    else:
        path = ensure_trace_cached(trace_config)
    tasks = [(str(path), spec, layout) for spec in spec_list]
    remaining = {index for index in range(count) if index not in completed}
    _run_hardened(tasks, remaining, workers, timeout, max_restarts, deliver)
    return [completed[index] for index in range(count)]
