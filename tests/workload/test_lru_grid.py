"""The LRU grid path against the oracle, and the mutants it must kill.

:func:`~repro.workload.lru_grid.lru_grid_stats` computes a Fig. 5 point
from stack distances and per-segment array rules instead of replaying.
Its only contract is the oracle's: ``ReplayStats`` equal to reference
``replay()`` over the source workload, field for field, and the scheme's
generator left where the oracle leaves it.  The property below checks
that over random small traces; the mutant tests then break one rule at a
time (distance, segment reset, demotion, draw order) and show the same
property fails on each.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

import repro.workload.fast_replay as fast_replay_module
import repro.workload.lru_grid as lru_grid
from repro.core.privacy.distributions import DegenerateK
from repro.core.schemes.always_delay import AlwaysDelayScheme
from repro.core.schemes.exponential import ExponentialRandomCache
from repro.core.schemes.grouping import NamespaceGrouping, NoGrouping
from repro.core.schemes.naive_threshold import NaiveThresholdScheme
from repro.core.schemes.no_privacy import NoPrivacyScheme
from repro.core.schemes.random_cache import RandomCacheScheme
from repro.core.schemes.registry import SchemeSpec
from repro.core.schemes.uniform import UniformRandomCache
from repro.ndn.errors import CacheError
from repro.ndn.name import Name
from repro.perf.parallel import ReplaySpec, build_scheme, run_replay_sweep
from repro.workload.compiled import CompiledTrace
from repro.workload.fast_replay import fast_replay
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator
from repro.workload.lru_grid import (
    FIRST,
    lru_grid_stats,
    runs_on_grid,
    stack_distances,
)
from repro.workload.marking import ContentMarking, NoMarking, RequestMarking
from repro.workload.replay import replay
from repro.workload.streaming import Request
from repro.workload.sharded import compile_workload
from tests.conftest import RequestList
from tests.workload.test_fast_replay import _recut


def _lru_stack_distances(ids):
    """Mattson's definition, one request at a time: 1-based depth of the
    content in the LRU stack, FIRST when it was never requested."""
    stack, out = [], []
    for cid in ids:
        if cid in stack:
            out.append(len(stack) - stack.index(cid))
            stack.remove(cid)
        else:
            out.append(FIRST)
        stack.append(cid)
    return out


@settings(max_examples=150, deadline=None)
@given(ids=st.lists(st.integers(0, 40), max_size=300))
def test_stack_distances_equal_an_lru_stack(ids):
    column = np.array(ids, dtype=np.int32)
    dist = stack_distances(column)
    assert dist.dtype == np.int32
    assert dist.tolist() == _lru_stack_distances(ids)


@pytest.mark.parametrize("n", [1, 15, 16, 17, 32, 33, 1000])
def test_stack_distances_at_block_edges(n):
    ids = np.random.default_rng(n).integers(0, max(1, n // 3), n).astype(np.int32)
    assert stack_distances(ids).tolist() == _lru_stack_distances(ids.tolist())


# ----------------------------------------------------------------------
# The property: any eligible point equals the oracle, generator included
# ----------------------------------------------------------------------
SCHEMES = {
    "no-privacy": lambda rng: NoPrivacyScheme(),
    "always-delay": lambda rng: AlwaysDelayScheme(),
    "uniform": lambda rng: UniformRandomCache(K=8, rng=rng),
    "exponential": lambda rng: ExponentialRandomCache(alpha=0.8, K=10, rng=rng),
    "degenerate": lambda rng: RandomCacheScheme(DegenerateK(2), rng=rng),
}

MARKINGS = {
    "none": lambda p, seed: NoMarking(),
    "content": lambda p, seed: ContentMarking(p, salt=seed),
    "request": lambda p, seed: RequestMarking(p, seed=seed),
}


def _workload(keys):
    """The source workload: one request per key, names /c/<key>."""
    return RequestList(
        Request(float(i), i % 3, Name.parse(f"/c/{key}")) for i, key in enumerate(keys)
    )


POINTS = st.fixed_dictionaries({
    # Few names, any length up to 150 and small capacities: contents are
    # requested again, evicted and inserted again.
    "keys": st.integers(1, 150).flatmap(
        lambda n: st.lists(st.integers(0, 7), min_size=n, max_size=n)
    ),
    "scheme": st.sampled_from(sorted(SCHEMES)),
    "marking": st.sampled_from(sorted(MARKINGS)),
    "fraction": st.sampled_from([0.0, 0.5, 0.8, 1.0]),
    "seed": st.integers(0, 2**32 - 1),
    "capacity": st.one_of(st.none(), st.integers(1, 8)),
    "shards": st.sampled_from([1, 3]),
})  # fmt: skip


def _check_point(point) -> None:
    """The grid point equals ``replay()`` over the source workload, with
    the scheme's and the marking's generators left in the oracle's state."""
    workload = _workload(point["keys"])
    compiled = _recut(compile_workload(workload), point["shards"])
    capacity = point["capacity"]
    if capacity is not None:
        capacity = min(capacity, compiled.n_names)  # 1 .. n_names, or None
    sides = []
    for _ in range(2):
        sides.append((
            SCHEMES[point["scheme"]](np.random.default_rng(point["seed"])),
            MARKINGS[point["marking"]](point["fraction"], point["seed"]),
        ))  # fmt: skip
    (scheme, marking), (oracle_scheme, oracle_marking) = sides
    expected = replay(
        workload, scheme=oracle_scheme, marking=oracle_marking,
        cache_size=capacity, fetch_delay=0.1,
    )  # fmt: skip
    got = lru_grid_stats(compiled, scheme, marking, capacity, fetch_delay=0.1)
    assert got == expected
    for ours, theirs in ((scheme, oracle_scheme), (marking, oracle_marking)):
        rng = getattr(ours, "rng", getattr(ours, "_rng", None))
        if rng is not None:
            oracle_rng = getattr(theirs, "rng", getattr(theirs, "_rng", None))
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(point=POINTS)
def test_grid_point_equals_the_oracle(point):
    _check_point(point)


def test_fig5_settings_equal_fast_replay():
    """The paper's parameters (K = 1000, alpha = 0.999) at a size where
    every rule fires often and a scheme draws several of the kernel's
    128-threshold blocks, which the small traces above never fill."""
    trace = IrcacheGenerator(IrcacheConfig(requests=6000, objects=4000, seed=3)).generate()
    marking = ContentMarking(0.2, salt=3)
    for name, build in (
        ("uniform", lambda: SchemeSpec("uniform").build(np.random.default_rng(4))),
        ("exponential", lambda: SchemeSpec("exponential").build(np.random.default_rng(4))),
        ("always-delay", AlwaysDelayScheme),
    ):  # fmt: skip
        for size in (1, 50, 400, 3000, None):
            ours, theirs = build(), build()
            got = lru_grid_stats(trace, ours, marking, size)
            assert got == fast_replay(trace, theirs, marking, size), (name, size)
            if hasattr(ours, "rng"):
                assert ours.rng.bit_generator.state == theirs.rng.bit_generator.state


# ----------------------------------------------------------------------
# The per-trace flag memo: shared by the sizes of one marking, never by
# two markings, never for a rule whose draws advance state
# ----------------------------------------------------------------------
MEMO_TRACE = IrcacheConfig(requests=3000, objects=1500, seed=11)


def fraction_memo_mismatches() -> int:
    """Grid points on one trace under two ContentMarkings with one salt
    and different fractions, interleaved, that differ from ``fast_replay``
    (which never reads the memo)."""
    trace = IrcacheGenerator(MEMO_TRACE).generate()
    bad = 0
    for fraction in (0.1, 0.4, 0.1):
        marking = ContentMarking(fraction, salt=6)
        for size in (20, None):
            ours, theirs = (UniformRandomCache(K=50, rng=np.random.default_rng(1))
                            for _ in range(2))  # fmt: skip
            got = lru_grid_stats(trace, ours, marking, size)
            bad += got != fast_replay(trace, theirs, marking, size)
    return bad


def test_one_salt_two_fractions_each_equal_fast_replay():
    assert fraction_memo_mismatches() == 0


def _count_trace_flags(monkeypatch):
    calls = []
    real = fast_replay_module._trace_flags

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(fast_replay_module, "_trace_flags", counting)
    return calls


def test_a_size_sweep_builds_its_flags_once(monkeypatch):
    trace = IrcacheGenerator(MEMO_TRACE).generate()
    calls = _count_trace_flags(monkeypatch)
    specs = [
        ReplaySpec(scheme=SchemeSpec("exponential"), cache_size=size,
                   marking=ContentMarking(0.2, salt=4), seed=size or 0)
        for size in (10, 50, 100, 200, 400, None)
    ]  # fmt: skip
    stats = run_replay_sweep(specs, trace=trace, workers=1)
    assert len(calls) == 1
    for spec, got in zip(specs, stats):
        scheme = build_scheme("exponential", seed=spec.seed)
        assert got == fast_replay(trace, scheme, spec.marking, spec.cache_size)


def test_a_request_marking_draws_on_every_call(monkeypatch):
    trace = IrcacheGenerator(MEMO_TRACE).generate()
    calls = _count_trace_flags(monkeypatch)
    ours, theirs = RequestMarking(0.3, seed=2), RequestMarking(0.3, seed=2)
    for _ in range(3):
        got = lru_grid_stats(trace, AlwaysDelayScheme(), ours, 40)
        assert got == fast_replay(trace, AlwaysDelayScheme(), theirs, 40)
    assert len(calls) == 3
    assert ours._rng.bit_generator.state == theirs._rng.bit_generator.state


class _Subclassed(UniformRandomCache):
    pass


@pytest.mark.parametrize(
    "scheme, policy, refresh, eligible",
    [
        (NoPrivacyScheme(), "lru", True, True),
        (AlwaysDelayScheme(), "lru", True, True),
        (UniformRandomCache(K=4), "lru", True, True),
        (ExponentialRandomCache(alpha=0.5), "lru", True, True),
        (RandomCacheScheme(DegenerateK(2)), "lru", True, True),
        (UniformRandomCache(K=4, grouping=NoGrouping()), "lru", True, True),
        (UniformRandomCache(K=4), "fifo", True, False),
        (UniformRandomCache(K=4), "lfu", True, False),
        (UniformRandomCache(K=4), "random", True, False),
        (UniformRandomCache(K=4), "lru", False, False),
        (UniformRandomCache(K=4, grouping=NamespaceGrouping(1)), "lru", True, False),
        (NaiveThresholdScheme(3), "lru", True, False),
        (_Subclassed(K=4), "lru", True, False),
    ],
)
def test_eligibility_is_by_exact_type(scheme, policy, refresh, eligible):
    assert runs_on_grid(scheme, policy, refresh) is eligible
    if not eligible and policy == "lru" and refresh:
        with pytest.raises(ValueError, match="LRU grid"):
            lru_grid_stats(_workload([0, 1, 0]), scheme)


def test_capacity_below_one_is_refused_like_fast_replay():
    with pytest.raises(CacheError, match="capacity"):
        lru_grid_stats(_workload([0, 1, 0]), NoPrivacyScheme(), cache_size=0)


def test_empty_trace():
    empty = CompiledTrace([], [])
    assert lru_grid_stats(empty, AlwaysDelayScheme(), cache_size=3) == replay(
        [], scheme=AlwaysDelayScheme(), cache_size=3
    )


# ----------------------------------------------------------------------
# Mutants: each breaks one rule of the grid; the property must fail
# ----------------------------------------------------------------------
def _off_by_one_distance(real):
    def mutant(ids, order=None):
        dist = real(ids, order)
        return np.where(dist == FIRST, dist, dist + 1).astype(np.int32)

    return mutant


def _segment_never_resets(real):
    # The run rule sees an unbounded cache: a capacity miss does not start
    # a new segment (the miss count itself stays right).
    return lambda dist_o, cap, flags_o, order: real(dist_o, FIRST - 1, flags_o, order)


def _demotion_does_not_stick(real):
    def mutant(dist_o, cap, flags_o, order):
        # A public hit answers itself as a hit but leaves the entry private:
        # every private hit of a private segment is counted.
        miss_o = dist_o > cap
        starts = np.flatnonzero(np.append(miss_o, True))
        private_hits = np.concatenate(([0], np.cumsum(flags_o & ~miss_o)))
        counts = private_hits[starts[1:]] - private_hits[starts[:-1]]
        private = flags_o[starts[:-1]]
        inserted_at = order[starts[:-1][private]]
        return counts[private][np.argsort(inserted_at)]

    return mutant


def _draws_out_of_trace_order(real):
    return lambda *args: real(*args)[::-1]


#: mutant -> (the ``lru_grid`` function it replaces, its factory).
MUTANTS = {
    "off-by-one distance": ("stack_distances", _off_by_one_distance),
    "segment does not reset on a miss": ("_private_runs", _segment_never_resets),
    "demotion does not stick": ("_private_runs", _demotion_does_not_stick),
    "draws out of trace order": ("_private_runs", _draws_out_of_trace_order),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_the_property_kills_each_mutant(mutant, monkeypatch):
    attribute, make = MUTANTS[mutant]
    monkeypatch.setattr(lru_grid, attribute, make(getattr(lru_grid, attribute)))

    @settings(
        max_examples=500, deadline=None, database=None,
        phases=[Phase.generate], report_multiple_bugs=False,
    )  # fmt: skip
    @given(point=POINTS)
    def prop(point):
        _check_point(point)

    with pytest.raises(AssertionError):
        prop()
