"""Tests for the multi-hop scale topology builders (strategy sweeps)."""

from __future__ import annotations

import pytest

from repro.ndn.errors import TopologyError
from repro.ndn.name import Name
from repro.ndn.topology import (
    SCALE_GRAPHS,
    TOPOLOGIES,
    fat_tree,
    geant_backbone,
    rocketfuel_isp,
)
from repro.sim.process import Timeout

CONTENT = Name.parse("/content/obj")


def follow_route(net, start, max_hops=64):
    """Walk FIB next hops from router ``start`` until an end host ("P")."""
    visited = [start]
    node = net[start]
    while True:
        hops = node.fib.longest_prefix_match(CONTENT)
        assert hops, f"{visited[-1]} has no route for {CONTENT}"
        node = hops[0].face.peer.owner
        if getattr(node, "fib", None) is None:
            # End hosts have no FIB and no network name: the walk is done.
            visited.append("P")
            return visited
        name = node.name
        assert name not in visited, f"forwarding loop: {visited + [name]}"
        visited.append(name)
        assert len(visited) <= max_hops


def fetch_roundtrip(topo, name="/content/smoke"):
    outcome = {}

    def proc():
        outcome["first"] = yield from topo.user.fetch(name, timeout=10_000.0)
        yield Timeout(5.0)
        outcome["second"] = yield from topo.adversary.fetch(
            name, timeout=10_000.0
        )

    topo.engine.spawn(proc(), label="smoke")
    topo.engine.run()
    return outcome


class TestRegistry:
    def test_scale_registry(self):
        assert set(SCALE_GRAPHS) == {"fat_tree", "rocketfuel", "geant"}
        assert set(SCALE_GRAPHS) <= set(TOPOLOGIES)

    @pytest.mark.parametrize("name", sorted(SCALE_GRAPHS))
    def test_end_to_end_fetch(self, name):
        topo = TOPOLOGIES[name](seed=3)
        outcome = fetch_roundtrip(topo)
        assert outcome["first"] is not None
        assert outcome["second"] is not None
        # Second fetch is served from the shared probe router's cache.
        assert outcome["second"].rtt < outcome["first"].rtt

    @pytest.mark.parametrize("name", sorted(SCALE_GRAPHS))
    def test_routes_loop_free_from_every_router(self, name):
        topo = TOPOLOGIES[name](seed=0)
        for router in topo.network.routers:
            path = follow_route(topo.network, router)
            assert path[-1] == "P"

    @pytest.mark.parametrize("name", sorted(SCALE_GRAPHS))
    def test_producer_path_matches_fib_walk(self, name):
        topo = TOPOLOGIES[name](seed=0)
        walked = follow_route(topo.network, topo.router.name)
        assert [f.name for f in topo.producer_path] == walked[1:-1]

    @pytest.mark.parametrize("name", sorted(SCALE_GRAPHS))
    def test_caching_spec_threads_to_all_routers(self, name):
        topo = TOPOLOGIES[name](seed=0, caching="lcd")
        for router in topo.network.routers.values():
            assert router.caching is not None
            assert router.caching.kind == "lcd"
            assert router.count_origin_hops


class TestFatTreeShape:
    @pytest.mark.parametrize("k", [2, 4])
    def test_router_counts(self, k):
        topo = fat_tree(seed=0, k=k)
        half = k // 2
        routers = set(topo.network.routers)
        cores = {r for r in routers if r.startswith("core")}
        aggs = {r for r in routers if r.startswith("agg")}
        edges = {r for r in routers if r.startswith("edge")}
        assert len(cores) == half * half
        assert len(aggs) == k * half
        assert len(edges) == k * half
        assert routers == cores | aggs | edges

    def test_degrees_for_k4(self):
        topo = fat_tree(seed=0, k=4, hosts_per_edge=2)
        net = topo.network
        # Edge: k/2 aggs + hosts_per_edge hosts = 4 faces.
        assert len(net["edge1-0"].faces) == 4
        # Aggregation: k/2 edges + k/2 cores = 4 faces.
        assert len(net["agg1-0"].faces) == 4
        # Core: one agg per pod = k faces (core0 also links to P).
        assert len(net["core1"].faces) == 4
        assert len(net["core0"].faces) == 5

    def test_depth_is_edge_agg_core(self):
        topo = fat_tree(seed=0, k=4)
        walked = follow_route(topo.network, "edge3-1")
        # edge -> agg -> core0-column core -> P (3 router hops).
        assert len(walked) == 4
        assert walked[1].startswith("agg3-")
        assert walked[2].startswith("core")

    def test_odd_or_tiny_arity_rejected(self):
        with pytest.raises(TopologyError, match="even"):
            fat_tree(seed=0, k=3)
        with pytest.raises(TopologyError, match="even"):
            fat_tree(seed=0, k=0)
        with pytest.raises(TopologyError, match="U and Adv"):
            fat_tree(seed=0, hosts_per_edge=1)


class TestRocketfuelShape:
    def test_deterministic_from_seed(self):
        def link_set(seed):
            topo = rocketfuel_isp(seed=seed)
            links = set()
            for router in topo.network.routers.values():
                for face in router.faces:
                    peer = face.peer.owner
                    if getattr(peer, "fib", None) is not None:
                        links.add(tuple(sorted((router.name, peer.name))))
            return links

        assert link_set(7) == link_set(7)
        # Chord sampling must depend on the seed (ring + tiers are fixed).
        assert link_set(7) != link_set(8)

    def test_small_ring_rejected(self):
        with pytest.raises(TopologyError, match=">= 3 backbone"):
            rocketfuel_isp(seed=0, backbones=2)

    def test_tier_counts(self):
        topo = rocketfuel_isp(
            seed=0, backbones=4, gateways_per_backbone=2, leaves_per_gateway=3
        )
        routers = set(topo.network.routers)
        assert sum(r.startswith("b") for r in routers) == 4
        assert sum(r.startswith("g") for r in routers) == 8
        assert sum(r.startswith("l") for r in routers) == 24


class TestGeantShape:
    def test_fixed_city_map(self):
        topo = geant_backbone(seed=0)
        assert set(topo.network.routers) == {
            "london", "dublin", "paris", "madrid", "geneva", "milan",
            "amsterdam", "frankfurt", "copenhagen", "vienna", "budapest",
            "stockholm",
        }
        assert topo.router.name == "madrid"

    def test_graph_identical_across_seeds(self):
        # Seeds only feed link jitter; the map itself is fixed.
        def degree_profile(seed):
            topo = geant_backbone(seed=seed)
            return {
                name: len(router.faces)
                for name, router in topo.network.routers.items()
            }

        assert degree_profile(1) == degree_profile(99)


class TestLpmCache:
    def test_lookups_memoized_then_invalidated_by_route_change(self):
        topo = fat_tree(seed=0, k=2)
        fib = topo.router.fib
        fib.longest_prefix_match(CONTENT)
        assert CONTENT in fib._lpm_cache
        topo.network.add_route(topo.router.name, "/other", "agg0-0")
        assert not fib._lpm_cache

    def test_fresh_graphs_do_not_share_caches(self):
        a = fat_tree(seed=0, k=2)
        b = fat_tree(seed=0, k=2)
        a.router.fib.longest_prefix_match(CONTENT)
        assert CONTENT in a.router.fib._lpm_cache
        assert a.router.fib._lpm_cache is not b.router.fib._lpm_cache
        assert CONTENT not in b.router.fib._lpm_cache
        # The memoized hop must point into its own graph's faces.
        hops = a.router.fib.longest_prefix_match(CONTENT)
        assert hops[0].face.owner is a.router
