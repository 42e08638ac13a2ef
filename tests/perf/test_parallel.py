"""The parallel sweep runner: worker-independence, routing, trace cache."""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest

from repro.core.schemes.no_privacy import NoPrivacyScheme
from repro.core.schemes.registry import SchemeSpec
from repro.core.schemes.uniform import UniformRandomCache
from repro.perf.parallel import (
    ReplaySpec,
    build_scheme,
    ensure_trace_cached,
    run_replay_sweep,
    trace_cache_dir,
    verify_trace_cache,
)
from repro.analysis.experiments import run_fig5a
from repro.workload.compiled import CompiledTrace
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator
from repro.workload.marking import ContentMarking
from repro.workload.replay import replay
from repro.workload.sharded import compile_workload
from repro.workload.streaming import TsvWorkload, save_tsv
from tests.workload.test_fast_replay import NeverRevealingUniform


@pytest.fixture(scope="module")
def trace() -> CompiledTrace:
    return IrcacheGenerator(
        IrcacheConfig(requests=2500, objects=2000, seed=5)
    ).generate()


def _grid_specs(trial_seeds):
    return [
        ReplaySpec(
            scheme=SchemeSpec(name),  # the Fig. 5 target: k=5, eps=0.005, delta=0.01
            cache_size=size,
            marking=ContentMarking(0.2, salt=1),
            seed=seed,
            label=f"{name}/{size}/{seed}",
        )
        for name in ("no-privacy", "exponential", "uniform")
        for size in (200, 500)
        for seed in trial_seeds
    ]


def test_sweep_engines_agree(trace):
    """The sweep (fast kernel) against direct reference ``replay()`` calls."""
    specs = _grid_specs([0])
    fast = run_replay_sweep(specs, trace=trace, workers=1)
    reference = [
        replay(
            trace,
            scheme=spec.scheme.build(np.random.default_rng(spec.seed)),
            marking=spec.marking,
            cache_size=spec.cache_size,
            seed=spec.seed,
        )
        for spec in specs
    ]
    assert fast == reference


def test_sweep_results_in_spec_order(trace):
    specs = [
        ReplaySpec(scheme=SchemeSpec("no-privacy"), cache_size=size, seed=0)
        for size in (100, 400, 1600)
    ]
    stats = run_replay_sweep(specs, trace=trace, workers=1)
    # Bigger caches never hit less: ordered results track the spec order.
    assert stats[0].hits <= stats[1].hits <= stats[2].hits


def test_sweep_input_validation(trace):
    with pytest.raises(ValueError):
        run_replay_sweep([], trace=trace, trace_config=IrcacheConfig())
    with pytest.raises(ValueError):
        run_replay_sweep([])
    assert run_replay_sweep([ ], trace=trace) == []
    spec = ReplaySpec(scheme=SchemeSpec("no-privacy"), cache_size=100)
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_replay_sweep([spec], trace=trace, workers=workers)


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
    reloaded = compile_workload(TsvWorkload(path))
    assert reloaded.n_requests == 500


@pytest.mark.parametrize("workers", [1, 2])
def test_a_tsv_imported_trace_sweeps_like_its_config(tmp_path, monkeypatch, workers):
    """A compiled trace handed to a sweep as ``trace=`` — here a TSV
    import — gives the ``trace_config=`` path's stats, through
    ``run_replay_sweep`` and through a Fig. 5 driver."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
    config = IrcacheConfig(requests=2500, objects=2000, seed=5)
    path = tmp_path / "trace.tsv"
    save_tsv(IrcacheGenerator(config).stream(), path)
    imported = compile_workload(TsvWorkload(path))
    specs = _grid_specs([7])
    assert run_replay_sweep(specs, trace=imported, workers=workers) == (
        run_replay_sweep(specs, trace_config=config, workers=workers)
    )
    sizes = (200, None)
    assert run_fig5a(imported, cache_sizes=sizes, seed=2, workers=workers).stats == (
        run_fig5a(config, cache_sizes=sizes, seed=2, workers=workers).stats
    )


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
        ReplaySpec(scheme=SchemeSpec("uniform"), cache_size=300, marking=marking, seed=3),
    ]  # fmt: skip
    workload = (
        {"trace": trace}
        if source == "trace"
        else {"trace_config": IrcacheConfig(requests=2500, objects=2000, seed=5)}
    )
    got = run_replay_sweep(specs, workers=workers, **workload)

    def scheme(spec):
        if isinstance(spec.scheme, SchemeSpec):
            return spec.scheme.build(np.random.default_rng(spec.seed))
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
        scheme=SchemeSpec("uniform", {"k": 5, "delta": 0.01}),
        cache_size=100,
        marking=ContentMarking(0.2),
        seed=4,
    )
    clone = pickle.loads(pickle.dumps(spec))
    assert (str(clone.scheme), clone.cache_size, clone.seed) == (
        "uniform(k=5, delta=0.01)", 100, 4
    )
    assert clone.scheme == spec.scheme
    assert clone.marking.fraction == spec.marking.fraction
