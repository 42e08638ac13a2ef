"""Parallel sweep runner for trace-replay experiment grids.

Every evaluation figure evaluates the same trace once per (scheme,
cache-size, trial) point.  Points on the paper's Fig. 5 grid — LRU with
the refresh rule and a scheme that
:func:`~repro.workload.lru_grid.runs_on_grid` accepts by exact type — are
not replays at all: under those rules the cache history does not depend
on the scheme, so each such point is an array pass over the trace's
memoised LRU stack distances
(:func:`~repro.workload.lru_grid.lru_grid_stats`), run in the calling
process over the one trace the sweep loaded.  Every other point (FIFO,
LFU, random, the refresh ablation, grouping, naive-threshold and
kernel-less schemes) is a replay.  A sweep over a handed-in trace runs
them in this process too; a sweep over an
:class:`~repro.workload.ircache.IrcacheConfig` fans them across a
:class:`~concurrent.futures.ProcessPoolExecutor` whose workers map the
config's own cache entry.  Results are **independent of the worker
count and of the route**:

* each sweep point is a picklable :class:`ReplaySpec` carrying its own
  seed, so the RNG stream of a point never depends on which worker ran
  it or in what order,
* results are collected by spec index, returned in spec order,
* workers obtain the trace from an on-disk cache keyed by the
  :class:`~repro.workload.ircache.IrcacheConfig` hash (a TSV file or a
  shard directory) instead of regenerating or unpickling it per task,
* the in-process points round-trip each spec through pickle so
  scheme/marking state is isolated exactly as process transport would
  isolate it — bit-identical to any worker count.

Pooled points run through one ``ProcessPoolExecutor.map``; a worker
that dies surfaces as :class:`SweepError`.  Trace-cache entries are
verified before use — a TSV entry against its ``.sha256`` sidecar, a
shard directory against its manifest's per-file checksums — and a
truncated or corrupted entry is regenerated instead of silently
poisoning the whole sweep (see ``tests/perf/test_trace_cache.py``).
``REPRO_TRACE_CACHE`` sets the cache directory (default:
``~/.cache/repro/traces``).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Union

import numpy as np

from repro.core.schemes.base import CacheScheme
from repro.core.schemes.registry import SchemeError, SchemeSpec
from repro.workload.compiled import CompiledTrace
from repro.workload.fast_replay import fast_replay
from repro.workload.lru_grid import lru_grid_stats, runs_on_grid
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

ENV_TRACE_CACHE = "REPRO_TRACE_CACHE"


class SweepError(RuntimeError):
    """A pool worker died before the sweep completed."""


class TraceCacheError(RuntimeError):
    """A trace-cache entry failed its integrity check."""


def build_scheme(name: str, seed: int = 0, **params: object) -> CacheScheme:
    """``SchemeSpec(name, params)`` built with an RNG seeded from ``seed``."""
    return SchemeSpec(name, params).build(np.random.default_rng(seed))


# ======================================================================
# Sweep points
# ======================================================================
@dataclass(frozen=True)
class ReplaySpec:
    """One sweep point: everything one replay task needs, picklable.

    ``scheme`` is either a :class:`SchemeSpec` (built in the worker with
    an RNG seeded from ``seed`` — the recommended form) or a ready
    :class:`CacheScheme` instance (pickled to the worker; its RNG state
    travels with it).
    """

    scheme: Union[SchemeSpec, CacheScheme]
    cache_size: Optional[int] = None
    marking: Optional[MarkingRule] = None
    policy: str = "lru"
    fetch_delay: float = 100.0
    seed: int = 0
    refresh_delayed_hits: bool = True
    #: Free-form tag echoed back with results (e.g. a figure-series key).
    label: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.scheme, str):
            raise SchemeError(
                f"ReplaySpec takes SchemeSpec({self.scheme!r}), not a bare name"
            )


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

    A missing or undecodable sidecar counts as invalid: an entry whose
    integrity cannot be established is treated the same as a corrupted
    one and the caller regenerates it.
    """
    path = Path(path)
    sidecar = _digest_sidecar(path)
    if not path.exists() or not sidecar.exists():
        return False
    try:
        recorded = sidecar.read_text(encoding="utf-8").strip()
    except UnicodeDecodeError:
        return False
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


def _sharded_entry_name(key: str) -> str:
    return f"ircache-shards-{key}"


def ensure_sharded_trace_cached(
    config: IrcacheConfig, shard_size: int = DEFAULT_SHARD_SIZE
) -> Path:
    """Generate-or-reuse the **sharded** compiled trace for ``config``.

    Returns the shard-directory path.  The workload is streamed straight
    into the sharded format (:func:`~repro.workload.sharded.compile_stream`)
    so the cache build itself never holds the full trace in RAM — peak
    RSS stays bounded by one shard.  An entry that fails its checksums is
    deleted and rebuilt (the config makes the rebuild deterministic).
    The build lands in a staging directory and is renamed into place, so
    a killed build never leaves a half-written entry under the cache key.
    """
    key = _config_key(config, layout="sharded", shard_size=shard_size)
    path = trace_cache_dir() / _sharded_entry_name(key)
    if path.is_dir():
        try:
            ShardedCompiledTrace.open(path).verify()
            return path
        except (ShardIntegrityError, OSError, ValueError):
            shutil.rmtree(path, ignore_errors=True)
    staging = Path(
        tempfile.mkdtemp(dir=str(trace_cache_dir()), prefix=f".build-{path.name}-")
    )
    source = {
        "kind": "ircache",
        "config_key": key,
        "algorithm_version": IRCACHE_ALGORITHM_VERSION,
    }
    try:
        compile_stream(
            IrcacheGenerator(config).stream(), staging, shard_size, source=source
        )
        try:
            os.replace(staging, path)
        except OSError:
            # Lost a build race: keep the winner if it verifies.
            ShardedCompiledTrace.open(path).verify()
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return path


#: Per-process memo of the last compiled TSV entry, so each worker pays
#: the parse + intern cost once per trace, not once per task.  One entry:
#: a process that moves on to another trace does not keep the old one.
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
        _PROCESS_TRACES.clear()
        _PROCESS_TRACES[path] = compile_workload(TsvWorkload(path))
    return _PROCESS_TRACES[path]


#: Per-process memo of the last opened shard directory.  Opening only
#: maps the manifest + name table; shard arrays stay on disk until replay
#: touches them.  One entry, as for ``_PROCESS_TRACES``.
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
        _PROCESS_SHARDED.clear()
        _PROCESS_SHARDED[path] = sharded
    return sharded


def _held_or_verified_sharded(
    config: IrcacheConfig, shard_size: int, local: List[tuple]
) -> ShardedCompiledTrace:
    """The sharded entry for ``config``, for the ``(index, spec, scheme)``
    points of ``local``.

    The entry is verified (:func:`ensure_sharded_trace_cached`) unless this
    process already holds it open and every point is a grid point whose
    columns and flags are memoised on it: such a sweep reads no byte of
    the entry's files, so there is nothing to check.
    """
    key = _config_key(config, layout="sharded", shard_size=shard_size)
    held = _PROCESS_SHARDED.get(str(trace_cache_dir() / _sharded_entry_name(key)))
    if held is not None and all(
        runs_on_grid(scheme, spec.policy, spec.refresh_delayed_hits)
        and held.grid_memoised(spec.marking)
        for _, spec, scheme in local
    ):
        return held
    return _load_sharded(str(ensure_sharded_trace_cached(config, shard_size)))


# ======================================================================
# Execution
# ======================================================================
def _scheme_of(spec: ReplaySpec) -> CacheScheme:
    scheme = spec.scheme
    if isinstance(scheme, SchemeSpec):
        scheme = scheme.build(np.random.default_rng(spec.seed))
    return scheme


def _execute(
    trace: CompiledTrace, spec: ReplaySpec, scheme: CacheScheme
) -> ReplayStats:
    """One sweep point, with ``scheme`` built from ``spec``
    (:func:`_scheme_of`): an LRU grid point from the trace's stack
    distances, any other on the replay kernel."""
    if runs_on_grid(scheme, spec.policy, spec.refresh_delayed_hits):
        return lru_grid_stats(
            trace, scheme, spec.marking, spec.cache_size, spec.fetch_delay
        )
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


def _worker_run(
    load: Callable[[str], CompiledTrace], path: str, spec: ReplaySpec
) -> ReplayStats:
    return _execute(load(path), spec, _scheme_of(spec))


def run_replay_sweep(
    specs: Iterable[ReplaySpec],
    trace: Optional[Workload] = None,
    trace_config: Optional[IrcacheConfig] = None,
    workers: Optional[int] = None,
    sharded: bool = False,
    shard_size: int = DEFAULT_SHARD_SIZE,
) -> List[ReplayStats]:
    """Run every sweep point; results in spec order.

    Exactly one of ``trace`` / ``trace_config`` supplies the workload.
    Any workload ``trace`` is compiled once (a compiled trace as it is)
    and every point runs on it in this process, whatever ``workers``
    says.  With ``trace_config`` the workload goes through the on-disk
    cache, and the points that are not grid points run in a pool of
    ``workers`` processes (default: the CPU count) that map the entry.

    ``sharded=True`` (requires ``trace_config``) routes the sweep through
    the memory-mapped sharded trace cache instead of the TSV one: the
    cache is built by streaming generation (the trace is never held in
    RAM) and each worker replays shard by shard, so worker RSS is bounded
    by one shard plus O(n_names) state rather than the whole request log.
    Results are bit-identical to the TSV path.

    One dispatch (:func:`_execute`) decides each point by exact type: a
    grid point (:func:`~repro.workload.lru_grid.runs_on_grid`) is an
    array pass over the loaded trace's stack distances, in this process
    at any ``workers``; any other point runs on
    :func:`~repro.workload.fast_replay.fast_replay`.  Both are
    bit-identical to the reference ``replay()``.  Results are independent
    of ``workers``, because every spec carries its own seed and schemes
    are isolated per task (pickle round-trip in process, process
    transport otherwise).  A pool worker that dies raises
    :class:`SweepError`.
    """
    if (trace is None) == (trace_config is None):
        raise ValueError("provide exactly one of trace= or trace_config=")
    if sharded and trace_config is None:
        raise ValueError("sharded sweeps require trace_config=")
    spec_list = list(specs)
    if not spec_list:
        return []
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    pool_size = 1 if trace is not None else min(workers, len(spec_list))

    # Grid points run here, over the one loaded trace; with a pool of
    # one, every point does.  Only the rest needs a pool.  Each spec is
    # pickle round-tripped so scheme/marking RNG state is isolated exactly
    # as process transport isolates it, and its scheme is built once, for
    # the routing test and the run.
    results: List[Optional[ReplayStats]] = [None] * len(spec_list)
    local = []
    for index, spec in enumerate(spec_list):
        spec = pickle.loads(pickle.dumps(spec))
        scheme = _scheme_of(spec)
        if pool_size == 1 or runs_on_grid(
            scheme, spec.policy, spec.refresh_delayed_hits
        ):
            local.append((index, spec, scheme))
    if local:
        if trace is not None:
            workload: CompiledTrace = compile_workload(trace)
        elif sharded:
            workload = _held_or_verified_sharded(trace_config, shard_size, local)
        else:
            workload = _load_trace(str(ensure_trace_cached(trace_config)))
        for index, spec, scheme in local:
            results[index] = _execute(workload, spec, scheme)
    pooled = [index for index, stats in enumerate(results) if stats is None]
    if not pooled:
        return results

    if sharded:
        load, path = _load_sharded, ensure_sharded_trace_cached(trace_config, shard_size)
    else:
        load, path = _load_trace, ensure_trace_cached(trace_config)
    task = partial(_worker_run, load, str(path))
    try:
        with ProcessPoolExecutor(max_workers=min(pool_size, len(pooled))) as pool:
            for index, stats in zip(
                pooled, pool.map(task, [spec_list[index] for index in pooled])
            ):
                results[index] = stats
    except BrokenProcessPool as exc:
        raise SweepError(
            f"a sweep worker died ({len(pooled)} pooled specs): {exc}"
        ) from exc
    return results
