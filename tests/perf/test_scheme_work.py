"""A privacy scheme must cost what its private traffic costs, not what
the cache's churn costs.

Count-based (no timing), in the style of ``test_marking_work.py``:
Algorithm 1 holds state only for content that entered the cache private,
so the fast replay consults the scheme kernel once per *private* insert,
at most once per eviction of such content, and the generator once per
block of thresholds — not once per miss, per eviction and per threshold.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from repro.core.schemes.no_privacy import NoPrivacyScheme
from repro.core.schemes.random_cache import _BLOCK
from repro.core.schemes.uniform import UniformRandomCache
from repro.workload.fast_replay import fast_replay
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator
from repro.workload.marking import ContentMarking
from repro.workload.replay import replay


@pytest.fixture(scope="module")
def trace():
    return IrcacheGenerator(
        IrcacheConfig(requests=9000, objects=7000, seed=23)
    ).generate()


class CountingKernel:
    """The kernel protocol, forwarded and tallied per method."""

    def __init__(self, kernel, calls: Counter) -> None:
        self.tracked = kernel.tracked
        for method in ("on_insert", "decide_private", "on_evict", "close"):
            setattr(self, method, self._counted(getattr(kernel, method), calls))

    @staticmethod
    def _counted(method, calls):
        def call(*args):
            calls[method.__name__] += 1
            return method(*args)

        return call


class CountingGenerator:
    """Stands where ``scheme.rng`` stands and tallies the two draw
    methods the shipped distributions use."""

    def __init__(self, rng: np.random.Generator, calls: Counter) -> None:
        self.bit_generator = rng.bit_generator
        self._rng = rng
        self._calls = calls

    def integers(self, *args, **kwargs):
        self._calls["generator"] += 1
        return self._rng.integers(*args, **kwargs)

    def random(self, *args, **kwargs):
        self._calls["generator"] += 1
        return self._rng.random(*args, **kwargs)


def _counted(scheme, calls: Counter):
    make_kernel = scheme.make_kernel
    scheme.make_kernel = lambda names: CountingKernel(make_kernel(names), calls)
    return scheme


class InsertCountingUniform(UniformRandomCache):
    """Oracle-side tally: the reference calls ``on_insert`` on every
    insert and says which were private."""

    inserts = private_inserts = 0

    def on_insert(self, entry, private, now):
        self.inserts += 1
        self.private_inserts += private
        super().on_insert(entry, private, now)


def test_uniform_replay_consults_the_kernel_per_private_insert(trace):
    settings = dict(cache_size=300, seed=1)
    oracle = InsertCountingUniform(K=30, rng=np.random.default_rng(6))
    expected = replay(
        trace, scheme=oracle, marking=ContentMarking(0.5, salt=2), **settings
    )
    misses, private = oracle.inserts, oracle.private_inserts
    assert misses == expected.misses and expected.evictions > misses // 2
    # The bounds below bind: most misses are public, several blocks are drawn.
    assert 2 * _BLOCK < private < 0.6 * misses

    calls = Counter()
    ours = UniformRandomCache(K=30, rng=np.random.default_rng(6))
    ours.rng = CountingGenerator(ours.rng, calls)
    got = fast_replay(
        trace, scheme=_counted(ours, calls), marking=ContentMarking(0.5, salt=2),
        **settings,
    )
    assert got == expected
    assert ours.rng.bit_generator.state == oracle.rng.bit_generator.state
    assert calls["on_insert"] == private  # one per miss at the parent
    assert 0 < calls["on_evict"] <= private  # one per eviction at the parent
    # One call per block and one more to hand back the last block's rest;
    # it was one call per threshold.
    assert 0 < calls["generator"] <= math.ceil(private / _BLOCK) + 1
    assert calls["close"] == 1


def test_no_privacy_replay_never_calls_the_kernel(trace):
    calls = Counter()
    got = fast_replay(trace, scheme=_counted(NoPrivacyScheme(), calls), cache_size=300)
    assert got.misses > 300 and got.evictions > 0
    assert calls == Counter(close=1)
