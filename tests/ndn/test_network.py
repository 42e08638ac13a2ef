"""Unit tests for network assembly."""

from __future__ import annotations

import pytest

from repro.ndn.errors import TopologyError
from repro.ndn.forwarder import Forwarder
from repro.ndn.link import FixedDelay
from repro.ndn.name import Name
from repro.ndn.network import Network
from repro.sim.process import Timeout


def linear_network():
    """consumer - R1 - R2 - producer."""
    net = Network()
    net.add_consumer("c")
    net.add_router("R1")
    net.add_router("R2")
    net.add_producer("p", "/data")
    net.connect("c", "R1", FixedDelay(1.0))
    net.connect("R1", "R2", FixedDelay(1.0))
    net.connect("R2", "p", FixedDelay(1.0))
    net.add_route_chain("/data", "R1", "R2", "p")
    return net


class TestAssembly:
    def test_duplicate_name_rejected(self):
        net = Network()
        net.add_router("R")
        with pytest.raises(TopologyError):
            net.add_consumer("R")

    def test_unknown_entity_rejected(self):
        net = Network()
        with pytest.raises(TopologyError):
            _ = net["ghost"]

    def test_contains(self):
        net = Network()
        net.add_router("R")
        assert "R" in net
        assert "X" not in net

    def test_face_between(self):
        net = linear_network()
        face = net.face_between("R1", "R2")
        assert face.owner is net["R1"]
        assert face.peer.owner is net["R2"]

    def test_face_between_unlinked_rejected(self):
        net = linear_network()
        with pytest.raises(TopologyError):
            net.face_between("c", "p")

    def test_route_on_non_forwarder_rejected(self):
        net = linear_network()
        with pytest.raises(TopologyError):
            net.add_route("c", "/data", "R1")

    def test_routers_property(self):
        net = linear_network()
        assert set(net.routers) == {"R1", "R2"}

    def test_add_route_chain_skips_end_hosts(self):
        net = linear_network()
        assert Name.parse("/data") in net["R1"].fib
        assert Name.parse("/data") in net["R2"].fib


class TestEndToEnd:
    def test_fetch_through_two_routers(self):
        net = linear_network()
        results = []

        def proc():
            result = yield from net["c"].fetch("/data/obj")
            results.append(result)

        net.spawn(proc())
        net.run()
        assert results[0] is not None
        assert results[0].rtt == pytest.approx(6.0)  # 3 links x 2 x 1ms

    def test_both_routers_cache(self):
        net = linear_network()

        def proc():
            yield from net["c"].fetch("/data/obj")

        net.spawn(proc())
        net.run()
        assert Name.parse("/data/obj") in net["R1"].cs
        assert Name.parse("/data/obj") in net["R2"].cs

    def test_second_fetch_served_by_first_hop(self):
        net = linear_network()
        rtts = []

        def proc():
            r1 = yield from net["c"].fetch("/data/obj")
            rtts.append(r1.rtt)
            yield Timeout(10.0)
            r2 = yield from net["c"].fetch("/data/obj")
            rtts.append(r2.rtt)

        net.spawn(proc())
        net.run()
        assert rtts[0] == pytest.approx(6.0)
        assert rtts[1] == pytest.approx(2.0)  # R1 cache hit

    def test_flush_caches(self):
        net = linear_network()

        def proc():
            yield from net["c"].fetch("/data/obj")

        net.spawn(proc())
        net.run()
        net.flush_caches()
        assert len(net["R1"].cs) == 0
        assert len(net["R2"].cs) == 0

    def test_deterministic_across_instances(self):
        def run_once():
            net = linear_network()
            rtts = []

            def proc():
                result = yield from net["c"].fetch("/data/obj")
                rtts.append(result.rtt)

            net.spawn(proc())
            net.run()
            return rtts[0]

        assert run_once() == run_once()


class TestRouterStreams:
    """Per-router RNG streams exist only for the components that draw."""

    def test_deterministic_routers_derive_no_policy_or_caching_stream(self):
        from repro.ndn.topology import fat_tree

        names = fat_tree(seed=5, caching="lce").network.rng.stream_names
        assert names  # the jittery links still have theirs
        assert not [n for n in names if n.startswith(("policy:", "caching:"))]

    def test_drawing_routers_keep_their_parent_commit_sequences(self):
        import json
        from pathlib import Path

        from repro.ndn.topology import fat_tree

        golden = json.loads(
            (
                Path(__file__).parents[1]
                / "analysis"
                / "golden_probe_campaigns.json"
            ).read_text("utf-8")
        )["rng_draws"]
        topo = fat_tree(seed=golden["seed"], caching="probcache", policy="random")
        router = topo.network[golden["router"]]
        names = topo.network.rng.stream_names
        assert f"policy:{router.name}" in names
        assert f"caching:{router.name}" in names
        assert router.cs.policy._rng.random(4).tolist() == golden["policy"]
        assert router.caching._rng.random(4).tolist() == golden["caching"]
