"""Sharded sweep mode: bounded-RSS workers, cache-key disjointness,
checksum-verified regenerate-on-corruption."""

from __future__ import annotations

import pytest

from repro.core.schemes.base import Decision
from repro.core.schemes.no_privacy import NoPrivacyScheme
from repro.perf.parallel import (
    ReplaySpec,
    _config_key,
    ensure_sharded_trace_cached,
    ensure_trace_cached,
    run_replay_sweep,
)
from repro.workload.fast_replay import fast_replay
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator
from repro.workload.marking import ContentMarking, RequestMarking
from repro.workload.replay import replay
from repro.workload.sharded import ShardedCompiledTrace
from tests.workload.test_sharded import MANIFEST_TAMPERINGS, tamper_manifest


CONFIG = IrcacheConfig(requests=6000, users=40, objects=500, sites=8, seed=21)

SPECS = [
    ReplaySpec(
        scheme="uniform",
        scheme_params={"k": 5, "delta": 0.01},
        cache_size=64,
        marking=ContentMarking(0.15, salt=3),
        seed=11,
    ),
    ReplaySpec(
        scheme="exponential",
        scheme_params={"k": 5, "epsilon": 0.005, "delta": 0.01},
        cache_size=128,
        policy="lfu",
        marking=RequestMarking(0.2, seed=5),
        seed=12,
    ),
    ReplaySpec(scheme="no-privacy", cache_size=None, policy="random", seed=13),
    ReplaySpec(scheme="always-delay", cache_size=48, policy="fifo", seed=14),
]


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))


def test_sharded_sweep_matches_materialized_serial_and_parallel():
    """The streaming/sharded path must be bit-identical to the in-RAM
    path for every spec — across serial and multi-worker execution."""
    materialized = run_replay_sweep(SPECS, trace_config=CONFIG, workers=1)
    serial = run_replay_sweep(
        SPECS, trace_config=CONFIG, workers=1, sharded=True, shard_size=1024
    )
    parallel = run_replay_sweep(
        SPECS, trace_config=CONFIG, workers=3, sharded=True, shard_size=1024
    )
    assert materialized == serial == parallel


def test_cache_keys_disjoint_across_layout_and_shard_size():
    """Satellite: the cache fingerprint covers layout and chunking, so a
    sharded entry can never collide with a materialized one (or with a
    differently sharded one) for the same generator config."""
    keys = {
        _config_key(CONFIG),
        _config_key(CONFIG, layout="sharded", shard_size=1024),
        _config_key(CONFIG, layout="sharded", shard_size=4096),
    }
    assert len(keys) == 3
    # And the on-disk entries land under different names entirely.
    tsv = ensure_trace_cached(CONFIG)
    shards = ensure_sharded_trace_cached(CONFIG, shard_size=1024)
    assert tsv != shards
    assert tsv.exists() and shards.is_dir()


def test_config_key_covers_every_config_field():
    base = _config_key(CONFIG)
    for name in CONFIG.__dataclass_fields__:
        value = getattr(CONFIG, name)
        if isinstance(value, int):
            bumped: object = value + 1
        elif isinstance(value, float):
            bumped = value + 0.25  # stays inside every field's valid range
        else:  # sequence-valued (e.g. the diurnal profile)
            bumped = tuple(value) + tuple(value)[:1]
        other = IrcacheConfig(**{**CONFIG.__dict__, name: bumped})
        assert _config_key(other) != base, f"field {name} not fingerprinted"


def test_sharded_cache_reused_then_regenerated_on_corruption():
    path = ensure_sharded_trace_cached(CONFIG, shard_size=1024)
    stamp = (path / "manifest.json").stat().st_mtime_ns
    # Clean entry: verified and reused in place.
    assert ensure_sharded_trace_cached(CONFIG, shard_size=1024) == path
    assert (path / "manifest.json").stat().st_mtime_ns == stamp
    # Corrupt one shard payload: the entry must be rebuilt, and the
    # rebuilt entry must pass a full checksum verification.
    (path / "shard-00000.ids.npy").write_bytes(b"garbage")
    rebuilt = ensure_sharded_trace_cached(CONFIG, shard_size=1024)
    assert rebuilt == path
    sharded = ShardedCompiledTrace.open(rebuilt)
    sharded.verify()
    assert sharded.n_requests == CONFIG.requests


@pytest.mark.parametrize("tampering", sorted(MANIFEST_TAMPERINGS))
def test_sharded_cache_regenerated_on_tampered_manifest(tampering):
    """No digest covers the manifest, so the entry must be rebuilt on
    every edit of it that would change (or crash) what is replayed."""
    path = ensure_sharded_trace_cached(CONFIG, shard_size=1024)
    original = (path / "manifest.json").read_text(encoding="utf-8")
    tamper_manifest(path, tampering)
    assert ensure_sharded_trace_cached(CONFIG, shard_size=1024) == path
    assert (path / "manifest.json").read_text(encoding="utf-8") == original
    ShardedCompiledTrace.open(path).verify()


def test_sharded_mode_input_validation(tmp_path):
    with pytest.raises(ValueError, match="trace_config"):
        run_replay_sweep(
            SPECS[:1], trace=object(), sharded=True  # type: ignore[arg-type]
        )


class Mine(NoPrivacyScheme):
    """Overrides ``on_request`` and so has no kernel: every other request
    for cached content is refused."""

    def __init__(self) -> None:
        super().__init__()
        self.seen = 0

    def on_request(self, entry, private, now):
        self.seen += 1
        return Decision.miss() if self.seen % 2 else Decision.hit()


@pytest.mark.parametrize("workers", [1, 2])
def test_kernelless_scheme_runs_on_a_sharded_sweep(workers):
    """A scheme without a kernel replays the shards on the oracle."""
    config = IrcacheConfig(requests=2000, seed=3)
    trace = IrcacheGenerator(config).generate()
    expected = replay(trace, scheme=Mine(), cache_size=50)
    assert expected != replay(trace, scheme=NoPrivacyScheme(), cache_size=50)
    specs = [ReplaySpec(scheme=Mine(), cache_size=50)] * 2
    swept = run_replay_sweep(
        specs, trace_config=config, workers=workers, sharded=True
    )
    assert swept == [expected, expected]
    assert fast_replay(trace, scheme=Mine(), cache_size=50) == expected
