"""Privacy marking must cost one hash pass per trace, not one per spec.

Count-based (no timing), in the style of ``tests/sim/test_setup_scaling.py``:
the Fig. 5 grid divides content into private and non-private once and
replays it 48 times, so the number of ``sha256`` calls the marking module
makes is bounded by the name tables read, whatever the number of specs.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

from repro.analysis.experiments import run_fig5a, run_fig5b
from repro.perf.parallel import ReplaySpec, build_scheme, run_replay_sweep
from repro.workload import marking
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator
from repro.workload.marking import ContentMarking
from repro.workload.replay import replay


def _count_marking_hashes(monkeypatch) -> list:
    """Route ``repro.workload.marking``'s ``hashlib.sha256`` through a
    counter (the shard checksums' own hashing is not marking work)."""
    calls = [0]

    def counting_sha256(*args):
        calls[0] += 1
        return hashlib.sha256(*args)

    monkeypatch.setattr(marking, "hashlib", SimpleNamespace(sha256=counting_sha256))
    return calls


def test_fig5_grid_hashes_each_name_table_once(monkeypatch):
    # A config no other test replays, so this process holds no trace of
    # it yet and each of the two stores is opened (and hashed) here.
    config = IrcacheConfig(requests=3000, objects=2500, seed=1913)
    n_names = IrcacheGenerator(config).generate().n_names
    assert n_names > 1000  # or the bound below is idle
    calls = _count_marking_hashes(monkeypatch)

    fig5a = run_fig5a(config, seed=5, workers=1)
    fig5b = run_fig5b(config, seed=5, workers=1, sharded=True)

    assert len(fig5a.stats) + len(fig5b.stats) == 48
    # One pass per compiled-trace object (the TSV store's and the shard
    # store's) for the one salt; it was one pass per spec, 48 x n_names.
    assert 0 < calls[0] <= 2 * n_names


def test_specs_alternating_two_salts_each_replay_like_the_oracle(monkeypatch):
    """The memo holds one salt: alternating salts re-hash (correctness
    over thrift), and every spec still equals the reference replay."""
    config = IrcacheConfig(requests=1500, objects=900, seed=8)
    trace = IrcacheGenerator(config).generate()
    calls = _count_marking_hashes(monkeypatch)
    specs = [
        ReplaySpec(
            scheme="exponential",
            cache_size=120,
            marking=ContentMarking(fraction, salt=salt),
            seed=index,
        )
        for index, (salt, fraction) in enumerate(
            [(1, 0.2), (2, 0.2), (1, 0.4), (2, 0.1), (1, 0.2), (1, 0.05)]
        )
    ]
    got = run_replay_sweep(specs, trace=trace, workers=1)
    calls_fast = calls[0]
    expected = [
        replay(
            trace,
            scheme=build_scheme("exponential", seed=spec.seed),
            marking=spec.marking,
            cache_size=spec.cache_size,
            seed=spec.seed,
        )
        for spec in specs
    ]
    assert got == expected
    assert len({(s.private_requests, s.hits) for s in got}) > 3  # flags differ
    # Five salt switches in six specs: five passes, not six.
    assert calls_fast == 5 * trace.n_names
