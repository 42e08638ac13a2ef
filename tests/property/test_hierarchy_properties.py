"""Property-based invariants of the cache-hierarchy replay."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.schemes.always_delay import AlwaysDelayScheme
from repro.ndn.name import Name
from repro.workload.hierarchy import CacheHierarchy, LevelConfig, replay_hierarchy
from repro.workload.marking import ContentMarking
from repro.workload.streaming import Request
from tests.conftest import compiled_trace

object_ids = st.integers(min_value=0, max_value=12)
request_lists = st.lists(object_ids, min_size=1, max_size=80)
edge_sizes = st.one_of(st.none(), st.integers(min_value=1, max_value=6))
private_fracs = st.sampled_from([0.0, 0.5, 1.0])


def trace_of(ids):
    return compiled_trace([
        Request(time=float(i), user=0, name=Name.parse(f"/s/o{obj}"))
        for i, obj in enumerate(ids)
    ])


def levels(edge_size, scheme=None):
    return [
        LevelConfig("edge", cache_size=edge_size, scheme=scheme, link_delay=1.0),
        LevelConfig("core", cache_size=None, link_delay=4.0),
    ]


@given(request_lists, edge_sizes, private_fracs)
@settings(max_examples=120, deadline=None)
def test_accounting_identity(ids, edge_size, frac):
    trace = trace_of(ids)
    stats = replay_hierarchy(
        trace, levels(edge_size), marking=ContentMarking(frac)
    )
    observable_hits = sum(stats.hits_by_level.values())
    # Every request is either an observable hit somewhere, a disguised/
    # origin response; origin fetches are a subset of the remainder.
    assert observable_hits + stats.origin_fetches <= stats.requests
    assert stats.requests == len(ids)
    assert 0.0 <= stats.total_hit_rate <= 1.0


@given(request_lists, edge_sizes)
@settings(max_examples=100, deadline=None)
def test_latency_bounds(ids, edge_size):
    trace = trace_of(ids)
    stats = replay_hierarchy(trace, levels(edge_size), origin_delay=40.0)
    # Every response costs at least the edge round trip and at most the
    # full path to the origin.
    assert 2.0 - 1e-9 <= stats.mean_latency <= 90.0 + 1e-9


@given(request_lists)
@settings(max_examples=80, deadline=None)
def test_unlimited_levels_first_touch_only_origin(ids):
    trace = trace_of(ids)
    stats = replay_hierarchy(trace, levels(None))
    assert stats.origin_fetches == trace.n_names == len(set(ids))


@given(request_lists, edge_sizes)
@settings(max_examples=80, deadline=None)
def test_all_private_always_delay_no_observable_hits(ids, edge_size):
    trace = trace_of(ids)
    stats = replay_hierarchy(
        trace,
        [
            LevelConfig("edge", cache_size=edge_size,
                        scheme=AlwaysDelayScheme(), link_delay=1.0),
            LevelConfig("core", cache_size=None,
                        scheme=AlwaysDelayScheme(), link_delay=4.0),
        ],
        marking=ContentMarking(1.0),
    )
    assert stats.total_hit_rate == 0.0


@given(request_lists, private_fracs)
@settings(max_examples=80, deadline=None)
def test_origin_traffic_independent_of_delays(ids, frac):
    """Artificial delays never change what is fetched from the origin."""
    trace = trace_of(ids)
    plain = replay_hierarchy(trace, levels(3), marking=ContentMarking(frac))
    delayed = replay_hierarchy(
        trace, levels(3, scheme=AlwaysDelayScheme()),
        marking=ContentMarking(frac),
    )
    assert plain.origin_fetches == delayed.origin_fetches
