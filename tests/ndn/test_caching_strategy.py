"""Tests for the cache-admission strategy axis (repro.ndn.strategy)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ndn.link import FixedDelay
from repro.ndn.name import Name
from repro.ndn.network import Network
from repro.ndn.strategy import (
    STRATEGIES,
    BernoulliStrategy,
    CachingStrategy,
    Cl4mStrategy,
    EdgeStrategy,
    LcdStrategy,
    LceStrategy,
    ProbCacheStrategy,
    StrategyError,
    brandes_betweenness,
    discover_graph,
    make_strategy,
    strategy_of,
)
from repro.sim.process import Timeout
from repro.validation.invariants import InvariantChecker


def rng(seed=0):
    return np.random.default_rng(seed)


class TestRegistry:
    def test_all_kinds_registered(self):
        assert set(STRATEGIES) == {
            "lce", "lcd", "probcache", "edge", "cl4m", "bernoulli",
        }

    def test_kind_attribute_matches_key(self):
        for kind, cls in STRATEGIES.items():
            assert cls.kind == kind

    def test_make_strategy_builds_each_kind(self):
        for kind in STRATEGIES:
            strategy = make_strategy(kind, rng=rng())
            assert isinstance(strategy, STRATEGIES[kind])

    def test_make_strategy_unknown_kind(self):
        with pytest.raises(StrategyError, match="unknown caching strategy"):
            make_strategy("mru-everywhere")

    def test_make_strategy_forwards_params(self):
        assert make_strategy("probcache", rng=rng(), weight=4.0).weight == 4.0
        assert make_strategy("bernoulli", rng=rng(), p=0.25).p == 0.25
        assert make_strategy("cl4m", quantile=0.9).quantile == 0.9

    def test_randomized_kinds_require_rng(self):
        with pytest.raises(StrategyError, match="RNG"):
            make_strategy("probcache")
        with pytest.raises(StrategyError, match="RNG"):
            make_strategy("bernoulli")

    def test_parameter_validation(self):
        with pytest.raises(StrategyError):
            ProbCacheStrategy(rng(), weight=0.0)
        with pytest.raises(StrategyError):
            BernoulliStrategy(rng(), p=1.5)
        with pytest.raises(StrategyError):
            Cl4mStrategy(quantile=0.0)
        with pytest.raises(StrategyError):
            Cl4mStrategy(quantile=1.5)

    def test_strategy_of_normalization(self):
        assert strategy_of(None) is None
        instance = LcdStrategy()
        assert strategy_of(instance) is instance
        assert isinstance(strategy_of("lcd"), LcdStrategy)
        with pytest.raises(StrategyError, match="must be None"):
            strategy_of(42)

    def test_only_lce_is_trivial(self):
        trivial = {k for k, cls in STRATEGIES.items() if cls.trivial}
        assert trivial == {"lce"}

    def test_hop_counting_kinds(self):
        needs = {k for k, cls in STRATEGIES.items() if cls.needs_origin_hops}
        assert needs == {"lcd", "probcache"}

    def test_base_admit_is_abstract(self):
        with pytest.raises(NotImplementedError):
            CachingStrategy().admit(Name.parse("/x"), 0, None)


class TestAdmitSemantics:
    def test_lce_always_admits(self):
        strategy = LceStrategy()
        assert all(
            strategy.admit(Name.parse("/a"), hops, None) for hops in range(5)
        )

    def test_lcd_admits_only_adjacent_to_origin(self):
        strategy = LcdStrategy()
        assert strategy.admit(Name.parse("/a"), 0, None)
        assert not strategy.admit(Name.parse("/a"), 1, None)
        assert not strategy.admit(Name.parse("/a"), 7, None)

    def test_probcache_probability_grows_with_distance(self):
        strategy = ProbCacheStrategy(rng(3), weight=10.0)
        name = Name.parse("/a")
        near = sum(strategy.admit(name, 0, None) for _ in range(2000))
        strategy = ProbCacheStrategy(rng(3), weight=10.0)
        far = sum(strategy.admit(name, 8, None) for _ in range(2000))
        # p=0.1 vs p=0.9: the far position must admit far more often.
        assert near < 400 < 1400 < far

    def test_probcache_saturates_at_one(self):
        strategy = ProbCacheStrategy(rng(1), weight=2.0)
        assert all(
            strategy.admit(Name.parse("/a"), 9, None) for _ in range(50)
        )

    def test_bernoulli_extremes(self):
        always = BernoulliStrategy(rng(0), p=1.0)
        never = BernoulliStrategy(rng(0), p=0.0)
        name = Name.parse("/a")
        assert all(always.admit(name, 0, None) for _ in range(20))
        assert not any(never.admit(name, 0, None) for _ in range(20))

    def test_bernoulli_draws_even_at_degenerate_p(self):
        # Stream position must be a pure function of the decision count:
        # after one decision each, two same-seeded streams with different
        # p are still aligned.
        a = BernoulliStrategy(rng(5), p=1.0)
        b = BernoulliStrategy(rng(5), p=0.5)
        name = Name.parse("/a")
        a.admit(name, 0, None)
        b.admit(name, 0, None)
        assert a._rng.random() == b._rng.random()


class StubFace:
    def __init__(self, owner):
        self.peer = type("Peer", (), {"owner": owner})()


class TestEdgeAndCl4m:
    def test_edge_detects_end_host_downstream(self):
        strategy = EdgeStrategy()
        host = type("Host", (), {})()        # no .fib attribute
        router = type("R", (), {"fib": object()})()
        name = Name.parse("/a")
        assert strategy.admit(name, 0, None, [StubFace(host)])
        assert not strategy.admit(name, 0, None, [StubFace(router)])
        assert strategy.admit(
            name, 0, None, [StubFace(router), StubFace(host)]
        )
        assert not strategy.admit(name, 0, None, [])

    def test_cl4m_brandes_betweenness_on_path_graph(self):
        # Path a-b-c-d-e: undirected pair counts (both directions) are
        # b: 2*3=6, c: 2*(2*2)=8, d: 6, endpoints 0.
        adjacency = {
            "a": ["b"], "b": ["a", "c"], "c": ["b", "d"],
            "d": ["c", "e"], "e": ["d"],
        }
        bc = brandes_betweenness(adjacency)
        assert bc == {"a": 0.0, "b": 6.0, "c": 8.0, "d": 6.0, "e": 0.0}

    def test_cl4m_brandes_memo_returns_a_fresh_equal_dict(self):
        from repro.ndn.strategy import _betweenness

        adjacency = {"a": ["b"], "b": ["a", "c"], "c": ["b"]}
        first = brandes_betweenness(adjacency)
        first["b"] = -1.0  # a caller's edit must not reach the memo
        again = brandes_betweenness(dict(adjacency))
        assert again == {"a": 0.0, "b": 2.0, "c": 0.0}
        assert again is not first
        graph = tuple((v, tuple(ns)) for v, ns in adjacency.items())
        assert again == dict(_betweenness.__wrapped__(graph))

    def test_cl4m_brandes_splits_shortest_paths(self):
        # Diamond a-{b,c}-d: two equal-length a..d paths, half credit each.
        adjacency = {
            "a": ["b", "c"], "b": ["a", "d"],
            "c": ["a", "d"], "d": ["b", "c"],
        }
        bc = brandes_betweenness(adjacency)
        # Every node carries exactly half of one opposing pair's two
        # equal-length shortest paths (e.g. b: half of a<->d, both
        # directions), so all four score 1.0 — and none more.
        assert bc == {
            "a": pytest.approx(1.0), "b": pytest.approx(1.0),
            "c": pytest.approx(1.0), "d": pytest.approx(1.0),
        }

    def test_cl4m_admits_only_top_betweenness_router(self):
        # Chain c - R1 - R2 - R3 - p: R2 carries the most shortest paths.
        net, routers = chain_network("cl4m")
        verdicts = {
            r: net[r].caching.compute_verdict(net[r]) for r in routers
        }
        assert verdicts == {"R1": False, "R2": True, "R3": False}

    def test_cl4m_verdict_is_cached_and_survives_reset(self):
        net, routers = chain_network("cl4m")
        strategy = net[routers[1]].caching
        assert strategy.compute_verdict(net[routers[1]]) is True
        strategy.reset()
        assert strategy._verdict is True  # topology state, not trial state

    def test_cl4m_quantile_one_admits_only_the_maximum(self):
        net, routers = chain_network("cl4m", hops=4)
        # 4-router chain: middle two routers share the maximum score.
        verdicts = [
            Cl4mStrategy(quantile=1.0).compute_verdict(net[r])
            for r in routers
        ]
        assert verdicts == [False, True, True, False]

    def test_cl4m_isolated_node_admits(self):
        from repro.sim.engine import Engine
        from repro.ndn.forwarder import Forwarder

        lone = Forwarder(Engine(), "lonely")
        assert Cl4mStrategy().compute_verdict(lone) is True

    def test_cl4m_caches_only_at_top_router_end_to_end(self):
        net, routers = chain_network("cl4m")
        fetch_all(net, ["/data/x"])
        assert Name.parse("/data/x") in net["R2"].cs
        assert Name.parse("/data/x") not in net["R1"].cs
        assert Name.parse("/data/x") not in net["R3"].cs
        assert net["R1"].monitor.counter("cache_declined") == 1
        assert net["R2"].monitor.counter("cache_declined") == 0


def chain_network(caching, hops=3, capacity=None):
    """c - R1 - ... - Rn - p with ``caching`` on every router."""
    net = Network()
    net.add_consumer("c")
    names = [f"R{i}" for i in range(1, hops + 1)]
    for name in names:
        net.add_router(name, capacity=capacity, caching=caching)
    net.add_producer("p", "/data")
    net.connect("c", names[0], FixedDelay(1.0))
    for a, b in zip(names, names[1:]):
        net.connect(a, b, FixedDelay(1.0))
    net.connect(names[-1], "p", FixedDelay(1.0))
    net.add_route_chain("/data", *names, "p")
    return net, names


def fetch_all(net, names, gap=5.0):
    consumer = net["c"]

    def proc():
        for name in names:
            result = yield from consumer.fetch(name, timeout=10_000.0)
            assert result is not None, f"fetch of {name} failed"
            yield Timeout(gap)

    net.spawn(proc(), label="fetcher")
    net.engine.run()


class TestForwarderIntegration:
    def test_lce_caches_at_every_hop(self):
        net, routers = chain_network("lce")
        fetch_all(net, ["/data/x"])
        for router in routers:
            assert Name.parse("/data/x") in net[router].cs
            assert net[router].monitor.counter("cache_declined") == 0

    def test_lcd_caches_one_hop_below_origin_then_migrates(self):
        net, routers = chain_network("lcd")
        fetch_all(net, ["/data/x"])
        # First fetch: only the router adjacent to the producer admits.
        assert Name.parse("/data/x") in net[routers[-1]].cs
        for router in routers[:-1]:
            assert Name.parse("/data/x") not in net[router].cs
            assert net[router].monitor.counter("cache_declined") >= 1
        # Second fetch hits R3's cache, so the copy moves down to R2.
        fetch_all(net, ["/data/x"])
        assert Name.parse("/data/x") in net[routers[-2]].cs
        assert Name.parse("/data/x") not in net[routers[0]].cs

    def test_lcd_turns_on_hop_counting_network_wide(self):
        net, routers = chain_network("lcd")
        assert all(net[r].count_origin_hops for r in routers)
        plain, plain_routers = chain_network("lce")
        assert not any(plain[r].count_origin_hops for r in plain_routers)

    def test_edge_caches_only_at_consumer_edge(self):
        net, routers = chain_network("edge")
        fetch_all(net, ["/data/x"])
        assert Name.parse("/data/x") in net[routers[0]].cs
        for router in routers[1:]:
            assert Name.parse("/data/x") not in net[router].cs

    def test_declined_admission_counted_and_ledger_balanced(self):
        net, routers = chain_network("bernoulli")  # per-router seeded stream
        fetch_all(net, [f"/data/x{i}" for i in range(30)])
        declined = sum(
            net[r].monitor.counter("cache_declined") for r in routers
        )
        assert declined > 0
        for router in routers:
            assert net[router].cs.ledger_balanced

    def test_invariants_hold_under_declining_strategy(self):
        net, _ = chain_network("lcd", capacity=4)
        fetch_all(net, [f"/data/x{i}" for i in range(25)])
        InvariantChecker().assert_ok(net)

    def test_invariants_hold_under_probcache_with_eviction(self):
        net, _ = chain_network("probcache", capacity=3)
        fetch_all(net, [f"/data/x{i}" for i in range(25)])
        InvariantChecker().assert_ok(net)

    def test_reinsert_refresh_keeps_ledger(self):
        # Satellite: the re-insert path must not move the CS ledger.
        net, routers = chain_network("lce", hops=1)
        fetch_all(net, ["/data/x"])
        router = net[routers[0]]
        before = router.cs.insertions
        entry = router.cs.lookup_exact(Name.parse("/data/x"), net.engine.now)
        router.cs.insert(entry.data, net.engine.now + 1.0)
        assert router.cs.insertions == before
        assert router.cs.ledger_balanced

    def test_same_seed_same_decisions(self):
        def declined_profile():
            net, routers = chain_network("bernoulli")
            fetch_all(net, [f"/data/x{i}" for i in range(20)])
            return [
                net[r].monitor.counter("cache_declined") for r in routers
            ]

        assert declined_profile() == declined_profile()
