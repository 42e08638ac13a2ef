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


# ----------------------------------------------------------------------
# Named streams: a router, link or strategy draws from the stream its
# name keys, and a stream is built only by its first draw.
# ----------------------------------------------------------------------
def _golden_rng_draws():
    import json
    from pathlib import Path

    return json.loads(
        (
            Path(__file__).parents[1] / "analysis" / "golden_probe_campaigns.json"
        ).read_text("utf-8")
    )["rng_draws"]


def _placement_point(topology, kernel, strategy, policy="random", capacity=8):
    """One placement point as ``run_placement_point`` builds it (fresh
    seeded topology, a uniform scheme at the probe router, the probe
    campaign), on the requested engine; returns ``(topo, observed)``."""
    from repro.analysis.placement import SWEEP_TOPOLOGIES
    from repro.attacks.timing import CacheProbeAttack, probe_campaign
    from repro.perf.parallel import build_scheme
    from repro.sim.batch import run_scripts

    topo = SWEEP_TOPOLOGIES[topology](
        seed=1043,
        scheme=build_scheme("uniform", seed=1043 * 31 + 1),
        cache_capacity=capacity,
        caching=strategy,
        policy=policy,
    )
    prefix = str(topo.content_prefix)
    hot = [f"{prefix}/private/hot-{i}" for i in range(10)]
    probes = [f"{prefix}/ref"] * (1 + CacheProbeAttack.REFERENCE_PROBES)
    probes += [*hot, *(f"{prefix}/private/cold-{i}" for i in range(10))]
    scripts = probe_campaign(
        topo, hot, probes, 1200.0, 2.0, CacheProbeAttack.GAP, private=True
    )
    observed = run_scripts(topo.network, scripts, kernel=kernel)
    assert observed.kernel == kernel
    return topo, observed


def check_streams_built_are_streams_drawn(topology, kernel, strategy):
    """Generators constructed == generators drawn from: the registry holds
    exactly the link streams of links that carried a packet and draw
    delays, the caching streams of randomized routers that took an
    admission decision and the policy streams of routers that evicted —
    plus the builder's own ``topo:`` streams — and every one of them has
    left its initial state."""
    from repro.ndn.strategy import RANDOMIZED_STRATEGIES

    topo, observed = _placement_point(topology, kernel, strategy)
    net = topo.network
    expected = {
        f"link:{name}"
        for name, packets in observed.link_packets.items()
        if packets and net.links[name].delay_model.draws
    }
    for name in net.routers:
        counters = observed.router_counters[name]
        if strategy in RANDOMIZED_STRATEGIES and (
            counters.get("cs_insert", 0) + counters.get("cache_declined", 0)
        ):
            expected.add(f"caching:{name}")
        if observed.router_stats[name]["cs_evictions"]:
            expected.add(f"policy:{name}")
    registry = net.rng
    built = set(registry.stream_names)
    assert {n for n in built if not n.startswith("topo:")} == expected
    assert expected, "the point drew from no stream"
    for name in built:
        initial = registry.fork(name).bit_generator.state
        assert registry.stream(name).bit_generator.state != initial, name


def check_drawing_routers_draw_their_named_streams():
    """The ``rng_draws`` golden: a router's policy and caching strategy
    draw the parent commit's sequences from the streams their names key,
    which exist only once drawn from."""
    from repro.ndn.topology import fat_tree

    golden = _golden_rng_draws()
    topo = fat_tree(seed=golden["seed"], caching="probcache", policy="random")
    router = topo.network[golden["router"]]
    registry = topo.network.rng
    keyed = {f"policy:{router.name}", f"caching:{router.name}"}
    assert not keyed & set(registry.stream_names)
    assert router.cs.policy._rng.random(4).tolist() == golden["policy"]
    assert router.caching._rng.random(4).tolist() == golden["caching"]
    assert keyed <= set(registry.stream_names)
    assert router.cs.policy._rng is registry.stream(f"policy:{router.name}")
    assert router.caching._rng is registry.stream(f"caching:{router.name}")


def _guarded_router(holder, scheme_stream, resolve_first):
    """C - R1 - P: R1's scheme holds ``net.rng.<scheme_stream>(name)``
    while its randomized ``holder`` ("caching" or "policy") holds the
    handle on that name — resolved before compiling if asked."""
    from repro.core.schemes.uniform import UniformRandomCache
    from repro.sim.batch import ConsumerScript, FetchStep

    net = Network()
    name = f"{holder}:R1"
    scheme = UniformRandomCache(K=4, rng=getattr(net.rng, scheme_stream)(name))
    router = net.add_router(
        "R1",
        capacity=2,
        scheme=scheme,
        caching="bernoulli" if holder == "caching" else None,
        policy="random" if holder == "policy" else "lru",
    )
    net.add_producer("P", "/content")
    net.add_consumer("C")
    net.connect("C", "R1", FixedDelay(0.5))
    net.connect("R1", "P", FixedDelay(0.5))
    net.add_route("R1", "/content", "P")
    if resolve_first:
        held = router.caching if holder == "caching" else router.cs.policy
        assert held._rng is net.rng.stream(name)
    steps = tuple(FetchStep(f"/content/obj-{i % 5}", private=True) for i in range(20))
    return net, [ConsumerScript("C", steps)]


def check_shared_stream_is_refused(holder, resolve_first):
    from repro.sim.batch import BatchCompileError, compile_topology

    try:
        compile_topology(*_guarded_router(holder, "stream", resolve_first))
    except BatchCompileError as refused:
        assert "R1's scheme and R1's policy/strategy share one random generator" in str(
            refused
        )
    else:
        raise AssertionError(f"a scheme sharing {holder}:R1 was not refused")


class TestRouterStreams:
    """A router draws from the stream its name keys, built at first draw."""

    def test_deterministic_routers_derive_no_policy_or_caching_stream(self):
        topo, _ = _placement_point("fat_tree", "reference", "lce", policy="lru")
        names = topo.network.rng.stream_names
        assert names  # the jittery links that carried packets have theirs
        assert not [n for n in names if n.startswith(("policy:", "caching:"))]

    def test_drawing_routers_keep_their_parent_commit_sequences(self):
        check_drawing_routers_draw_their_named_streams()


class TestStreamWork:
    @pytest.mark.parametrize("strategy", ["lce", "probcache"])
    @pytest.mark.parametrize("kernel", ["batch", "reference"])
    @pytest.mark.parametrize("topology", ["fig3a_lan", "fat_tree", "rocketfuel", "geant"])
    def test_generators_built_equal_generators_drawn(self, topology, kernel, strategy):
        check_streams_built_are_streams_drawn(topology, kernel, strategy)


class TestSharedStreamGuard:
    @pytest.mark.parametrize("resolve_first", [False, True], ids=["lazy", "resolved"])
    @pytest.mark.parametrize("holder", ["caching", "policy"])
    def test_scheme_on_a_routers_named_stream_is_refused(self, holder, resolve_first):
        check_shared_stream_is_refused(holder, resolve_first)

    @pytest.mark.parametrize("holder", ["caching", "policy"])
    def test_a_forked_copy_is_not_shared(self, holder):
        from repro.sim.batch import run_scripts

        observed = run_scripts(*_guarded_router(holder, "fork", False))
        assert observed.kernel == "batch"


# ----------------------------------------------------------------------
# Mutants of the lazy-stream path, each killed by a named check above.
# ----------------------------------------------------------------------
def _resolve_through_fork(monkeypatch):
    from repro.sim.rng import LazyStream

    monkeypatch.setattr(
        LazyStream, "resolve", lambda self: self.registry.fork(self.name)
    )


def _resolve_a_wrong_name(monkeypatch):
    from repro.sim.rng import LazyStream

    monkeypatch.setattr(
        LazyStream, "resolve", lambda self: self.registry.stream(self.name + "'")
    )


def _guard_by_identity(monkeypatch):
    from repro.sim.batch import compile as compile_module

    monkeypatch.setattr(compile_module, "stream_key", id)


def _links_resolved_at_compile(monkeypatch):
    from repro.sim.batch import compile as compile_module

    real = compile_module._compile_link

    def compile_link(link):
        link.rng  # resolve the handle now, drawing or not
        return real(link)

    monkeypatch.setattr(compile_module, "_compile_link", compile_link)


#: mutant -> (patch, the checks that must each fail under it).
MUTANTS = {
    "handle resolves through fork": (
        _resolve_through_fork,
        [
            check_drawing_routers_draw_their_named_streams,
            lambda: check_streams_built_are_streams_drawn("fat_tree", "batch", "probcache"),
        ],
    ),
    "handle resolves a wrong name": (
        _resolve_a_wrong_name,
        [
            check_drawing_routers_draw_their_named_streams,
            lambda: check_streams_built_are_streams_drawn("geant", "reference", "probcache"),
        ],
    ),
    "guard compares handles by identity": (
        _guard_by_identity,
        [
            lambda: check_shared_stream_is_refused("caching", False),
            lambda: check_shared_stream_is_refused("policy", False),
            lambda: check_shared_stream_is_refused("caching", True),
        ],
    ),
    "kernel resolves every link handle at compile time": (
        _links_resolved_at_compile,
        [lambda: check_streams_built_are_streams_drawn("fat_tree", "batch", "lce")],
    ),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_each_mutant_is_killed(mutant, monkeypatch):
    patch, checks = MUTANTS[mutant]
    patch(monkeypatch)
    for check in checks:
        with pytest.raises(AssertionError):
            check()
