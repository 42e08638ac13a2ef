"""The parallel sweep runner: worker-independence, seeding, trace cache."""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest

from repro.core.schemes.no_privacy import NoPrivacyScheme
from repro.core.schemes.uniform import UniformRandomCache
from repro.perf.parallel import (
    ReplaySpec,
    build_scheme,
    derive_seeds,
    ensure_trace_cached,
    resolve_workers,
    run_replay_sweep,
    trace_cache_dir,
    verify_trace_cache,
)
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator
from repro.workload.marking import ContentMarking
from repro.workload.replay import replay
from repro.workload.trace import Trace
from tests.workload.test_fast_replay import NeverRevealingUniform


@pytest.fixture(scope="module")
def trace() -> Trace:
    return IrcacheGenerator(
        IrcacheConfig(requests=2500, objects=2000, seed=5)
    ).generate()


def _grid_specs(trial_seeds):
    return [
        ReplaySpec(
            scheme=name,
            scheme_params={"k": 5, "epsilon": 0.005, "delta": 0.01},
            cache_size=size,
            marking=ContentMarking(0.2, salt=1),
            seed=seed,
            label=f"{name}/{size}/{seed}",
        )
        for name in ("no-privacy", "exponential", "uniform")
        for size in (200, 500)
        for seed in trial_seeds
    ]


def test_sweep_independent_of_worker_count(trace, tmp_path, monkeypatch):
    """The ISSUE's determinism criterion: same results for 1 and 4 workers."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    specs = _grid_specs(derive_seeds(base_seed=42, count=2))
    serial = run_replay_sweep(specs, trace=trace, workers=1)
    parallel = run_replay_sweep(specs, trace=trace, workers=4)
    assert serial == parallel


def test_sweep_engines_agree(trace, monkeypatch):
    """The sweep (fast kernel) against direct reference ``replay()`` calls."""
    monkeypatch.setenv("REPRO_WORKERS", "1")
    specs = _grid_specs([0])
    fast = run_replay_sweep(specs, trace=trace)
    reference = [
        replay(
            trace,
            scheme=build_scheme(spec.scheme, seed=spec.seed, **dict(spec.scheme_params)),
            marking=spec.marking,
            cache_size=spec.cache_size,
            seed=spec.seed,
        )
        for spec in specs
    ]
    assert fast == reference


def test_sweep_results_in_spec_order(trace, monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "1")
    specs = [
        ReplaySpec(scheme="no-privacy", cache_size=size, seed=0)
        for size in (100, 400, 1600)
    ]
    stats = run_replay_sweep(specs, trace=trace)
    # Bigger caches never hit less: ordered results track the spec order.
    assert stats[0].hits <= stats[1].hits <= stats[2].hits


def test_sweep_input_validation(trace):
    with pytest.raises(ValueError):
        run_replay_sweep([], trace=trace, trace_config=IrcacheConfig())
    with pytest.raises(ValueError):
        run_replay_sweep([])
    assert run_replay_sweep([ ], trace=trace) == []


def test_derive_seeds_deterministic_and_distinct():
    first = derive_seeds(base_seed=7, count=8)
    assert first == derive_seeds(base_seed=7, count=8)
    assert len(set(first)) == 8
    assert derive_seeds(base_seed=8, count=8) != first
    # Prefix-stable: widening the grid keeps existing trial seeds.
    assert derive_seeds(base_seed=7, count=4) == first[:4]


def test_resolve_workers(monkeypatch):
    assert resolve_workers(3) == 3
    monkeypatch.setenv("REPRO_WORKERS", "2")
    assert resolve_workers() == 2
    monkeypatch.delenv("REPRO_WORKERS")
    assert resolve_workers() >= 1
    with pytest.raises(ValueError):
        resolve_workers(0)


def test_trace_cache_reused(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    assert trace_cache_dir() == tmp_path
    config = IrcacheConfig(requests=500, objects=400, seed=9)
    path = ensure_trace_cached(config)
    assert path.exists()
    stamp = path.stat().st_mtime_ns
    # Second call must reuse the file, not regenerate it.
    assert ensure_trace_cached(config) == path
    assert path.stat().st_mtime_ns == stamp
    # So must an entry whose sidecar was written with the whole-file
    # expression earlier versions used: streaming the hash kept the digest.
    path.with_name(path.name + ".sha256").write_text(
        hashlib.sha256(path.read_bytes()).hexdigest(), encoding="utf-8"
    )
    assert verify_trace_cache(path)
    assert ensure_trace_cached(config) == path
    assert path.stat().st_mtime_ns == stamp
    # A different config gets a different key.
    other = ensure_trace_cached(IrcacheConfig(requests=600, objects=400, seed=9))
    assert other != path
    reloaded = Trace.load(path)
    assert len(reloaded) == 500


def test_build_scheme_registry():
    scheme = build_scheme("exponential", seed=3, k=5, epsilon=0.005, delta=0.01)
    assert type(scheme).__name__ == "ExponentialRandomCache"
    with pytest.raises(ValueError):
        build_scheme("mystery")


class OpaqueNoPrivacy(NoPrivacyScheme):
    def make_kernel(self, names):
        return None


@pytest.mark.parametrize("source", ["trace", "trace_config"])
@pytest.mark.parametrize("workers", [1, 2])
def test_kernelless_schemes_replay_on_the_oracle_from_a_tsv_entry(
    trace, tmp_path, monkeypatch, source, workers
):
    """A worker holds a TSV entry as compiled columns, which have no
    Request objects; a scheme without a kernel must still get the oracle."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    marking = ContentMarking(0.3, salt=2)
    specs = [
        ReplaySpec(
            scheme=NeverRevealingUniform(K=6, rng=np.random.default_rng(3)),
            cache_size=300, marking=marking, seed=3,
        ),
        ReplaySpec(scheme=OpaqueNoPrivacy(), cache_size=300, seed=1),
        ReplaySpec(scheme="uniform", cache_size=300, marking=marking, seed=3),
    ]  # fmt: skip
    workload = (
        {"trace": trace}
        if source == "trace"
        else {"trace_config": IrcacheConfig(requests=2500, objects=2000, seed=5)}
    )
    got = run_replay_sweep(specs, workers=workers, **workload)

    def scheme(spec):
        if isinstance(spec.scheme, str):
            return build_scheme(spec.scheme, seed=spec.seed)
        return pickle.loads(pickle.dumps(spec.scheme))

    expected = [
        replay(trace, scheme=scheme(spec), marking=spec.marking,
               cache_size=spec.cache_size, seed=spec.seed)
        for spec in specs
    ]  # fmt: skip
    assert got == expected
    assert got == run_replay_sweep(specs, trace=trace, workers=1)
    # Not vacuous: the overriding subclass answers differently.
    assert got[0] != replay(
        trace, scheme=UniformRandomCache(K=6, rng=np.random.default_rng(3)),
        marking=marking, cache_size=300, seed=3,
    )  # fmt: skip


def test_replay_spec_picklable(trace):
    spec = ReplaySpec(
        scheme="uniform",
        scheme_params={"k": 5, "delta": 0.01},
        cache_size=100,
        marking=ContentMarking(0.2),
        seed=4,
    )
    clone = pickle.loads(pickle.dumps(spec))
    assert (clone.scheme, clone.cache_size, clone.seed) == ("uniform", 100, 4)
    assert dict(clone.scheme_params) == {"k": 5, "delta": 0.01}
    assert clone.marking.fraction == spec.marking.fraction
