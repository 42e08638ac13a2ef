"""Tests for the edge/core cache-hierarchy replay."""

from __future__ import annotations

import pytest

from repro.core.schemes.always_delay import AlwaysDelayScheme
from repro.ndn.name import Name
from repro.workload.hierarchy import (
    CacheHierarchy,
    HierarchyStats,
    LevelConfig,
    replay_hierarchy,
)
from repro.workload.ircache import small_test_trace
from repro.workload.marking import ContentMarking
from repro.workload.streaming import Request
from tests.conftest import compiled_trace


def two_levels(edge_size=None, core_size=None, edge_scheme=None,
               core_scheme=None):
    return [
        LevelConfig("edge", cache_size=edge_size, scheme=edge_scheme,
                    link_delay=1.0),
        LevelConfig("core", cache_size=core_size, scheme=core_scheme,
                    link_delay=4.0),
    ]


def seq_trace(uris):
    return compiled_trace([
        Request(time=float(i), user=0, name=Name.parse(u))
        for i, u in enumerate(uris)
    ])


class TestBasicFlow:
    def test_first_fetch_goes_to_origin(self):
        hierarchy = CacheHierarchy(two_levels(), origin_delay=40.0)
        served, observable, latency = hierarchy.request(
            Name.parse("/a"), False, 0.0
        )
        assert served == "origin"
        assert not observable
        # 2*1 + 2*4 + 2*40 = 90.
        assert latency == pytest.approx(90.0)

    def test_second_fetch_hits_edge(self):
        hierarchy = CacheHierarchy(two_levels())
        hierarchy.request(Name.parse("/a"), False, 0.0)
        served, observable, latency = hierarchy.request(
            Name.parse("/a"), False, 1.0
        )
        assert served == "edge"
        assert observable
        assert latency == pytest.approx(2.0)

    def test_edge_eviction_falls_back_to_core(self):
        hierarchy = CacheHierarchy(two_levels(edge_size=1))
        hierarchy.request(Name.parse("/a"), False, 0.0)
        hierarchy.request(Name.parse("/b"), False, 1.0)  # evicts /a at edge
        served, observable, latency = hierarchy.request(
            Name.parse("/a"), False, 2.0
        )
        assert served == "core"
        assert observable
        assert latency == pytest.approx(10.0)  # 2*1 + 2*4

    def test_backfill_repopulates_edge(self):
        hierarchy = CacheHierarchy(two_levels(edge_size=1))
        hierarchy.request(Name.parse("/a"), False, 0.0)
        hierarchy.request(Name.parse("/b"), False, 1.0)
        hierarchy.request(Name.parse("/a"), False, 2.0)  # core hit, backfill
        served, _obs, latency = hierarchy.request(Name.parse("/a"), False, 3.0)
        assert served == "edge"
        assert latency == pytest.approx(2.0)

    def test_recorded_fetch_delay_per_level(self):
        """Each level's γ_C is the round trip from itself to the server —
        what its delay policy would need to replay."""
        hierarchy = CacheHierarchy(two_levels(), origin_delay=40.0)
        hierarchy.request(Name.parse("/a"), False, 0.0)
        edge_entry = hierarchy.levels[0].cs.lookup_exact(
            Name.parse("/a"), 1.0, touch=False
        )
        core_entry = hierarchy.levels[1].cs.lookup_exact(
            Name.parse("/a"), 1.0, touch=False
        )
        assert edge_entry.fetch_delay == pytest.approx(88.0)  # 90 - 2*1
        assert core_entry.fetch_delay == pytest.approx(80.0)  # 90 - 2 - 8

    def test_empty_hierarchy_rejected(self):
        with pytest.raises(ValueError):
            CacheHierarchy([])


class TestPrivacyPlacement:
    def test_edge_only_delay_hides_edge_hits(self):
        trace = seq_trace(["/s/x", "/s/x", "/s/x"])
        stats = replay_hierarchy(
            trace,
            two_levels(edge_scheme=AlwaysDelayScheme()),
            marking=ContentMarking(1.0),
        )
        assert stats.hits_by_level.get("edge", 0) == 0
        # Disguised responses pay the recorded fetch delay.
        assert stats.mean_latency > 30.0

    def test_delay_everywhere_hides_core_too(self):
        levels = two_levels(
            edge_size=1,
            edge_scheme=AlwaysDelayScheme(),
            core_scheme=AlwaysDelayScheme(),
        )
        trace = seq_trace(["/s/a", "/s/b", "/s/a"])  # /s/a evicted at edge
        stats = replay_hierarchy(trace, levels, marking=ContentMarking(1.0))
        assert stats.total_hit_rate == 0.0

    def test_no_privacy_counts_by_level(self):
        trace = seq_trace(["/s/a", "/s/b", "/s/a", "/s/a"])
        stats = replay_hierarchy(trace, two_levels(edge_size=1))
        # /s/a: origin, /s/b: origin (evicts a), /s/a: core, /s/a: edge.
        assert stats.origin_fetches == 2
        assert stats.hits_by_level == {"core": 1, "edge": 1}
        assert stats.total_hit_rate == pytest.approx(0.5)


class TestTraceReplay:
    def test_edge_only_placement_on_the_fig5_trace(self, ircache_trace):
        """The trace-scale footnote 6: Always-Delay nowhere, at the edge
        (2k) only, or at edge and core (16k), all traffic private.  The
        edge-only placement closes the probed (edge) oracle while the core
        still accelerates private re-fetches."""
        by = {}
        for placement in ("none", "edge", "all"):
            edge_scheme = AlwaysDelayScheme() if placement != "none" else None
            core_scheme = AlwaysDelayScheme() if placement == "all" else None
            by[placement] = replay_hierarchy(
                ircache_trace,
                [
                    LevelConfig("edge", cache_size=2000, scheme=edge_scheme,
                                link_delay=1.0),
                    LevelConfig("core", cache_size=16000, scheme=core_scheme,
                                link_delay=6.0),
                ],
                marking=ContentMarking(1.0),
                origin_delay=40.0,
            )
        none, edge, every = by["none"], by["edge"], by["all"]
        # Undefended: both levels serve observable hits.
        assert none.hit_rate("edge") > 0 and none.hit_rate("core") > 0
        # Edge-only: the probed oracle is closed, the core still serves.
        assert edge.hit_rate("edge") == 0.0
        assert edge.hit_rate("core") > 0
        # Everywhere: no observable hits at all.
        assert every.hit_rate("edge") == 0.0 and every.hit_rate("core") == 0.0
        # Latency ordering: none < edge < all.
        assert none.mean_latency < edge.mean_latency < every.mean_latency
        # Origin traffic identical across placements (delays, not re-fetches).
        assert none.origin_fetches == edge.origin_fetches == every.origin_fetches

    def test_hierarchy_beats_single_level_hit_rate(self):
        trace = small_test_trace(requests=4000, seed=11)
        single = replay_hierarchy(
            trace, [LevelConfig("edge", cache_size=100, link_delay=1.0)]
        )
        double = replay_hierarchy(
            trace,
            two_levels(edge_size=100, core_size=1000),
        )
        assert double.total_hit_rate > single.total_hit_rate

    def test_latency_ordering(self):
        """Edge hits are cheaper than core hits are cheaper than origin."""
        trace = small_test_trace(requests=4000, seed=12)
        stats = replay_hierarchy(trace, two_levels(edge_size=200,
                                                   core_size=2000))
        assert stats.mean_latency < 90.0  # better than all-origin
        assert stats.hit_rate("edge") > 0
        assert stats.hit_rate("core") > 0

    def test_private_request_accounting(self):
        trace = small_test_trace(requests=1000, seed=13)
        stats = replay_hierarchy(
            trace, two_levels(), marking=ContentMarking(0.3)
        )
        assert 0 < stats.private_requests < stats.requests
