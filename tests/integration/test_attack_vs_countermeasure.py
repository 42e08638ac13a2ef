"""Integration: the timing attack against defended routers, end to end.

The headline security claim — probing a router running a delay-based
countermeasure yields (almost) nothing — exercised in the packet-level
simulator on the Figure 1 topology.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.classifier import bayes_success
from repro.core.schemes.always_delay import AlwaysDelayScheme
from repro.core.schemes.naive_threshold import NaiveThresholdScheme
from repro.core.schemes.no_privacy import NoPrivacyScheme
from repro.core.schemes.uniform import UniformRandomCache
from repro.ndn.link import GaussianJitterDelay
from repro.ndn.name import Name
from repro.ndn.network import Network
from repro.ndn.topology import local_lan
from repro.sim.process import Timeout
from repro.sim.rng import RngRegistry


def probe_campaign(scheme_factory, objects=25, trials=3, producer_private=True):
    """U prefetches `objects` private objects; Adv probes them plus as
    many cold names.  Returns (hot RTTs, cold RTTs) pooled over trials."""
    hot_rtts, cold_rtts = [], []
    for trial in range(trials):
        topo = local_lan(seed=100 + trial, scheme=scheme_factory())
        topo.producer.private_by_default = producer_private
        hot = [f"/content/h{trial}-{i}" for i in range(objects)]
        cold = [f"/content/c{trial}-{i}" for i in range(objects)]

        def user_proc():
            for name in hot:
                result = yield from topo.user.fetch(name, private=True)
                assert result is not None
                yield Timeout(2.0)

        def adv_proc():
            yield Timeout(1000.0)
            for name in hot:
                result = yield from topo.adversary.fetch(name, private=True)
                if result is not None:
                    hot_rtts.append(result.rtt)
                yield Timeout(2.0)
            for name in cold:
                result = yield from topo.adversary.fetch(name, private=True)
                if result is not None:
                    cold_rtts.append(result.rtt)
                yield Timeout(2.0)

        topo.engine.spawn(user_proc(), label="user")
        topo.engine.spawn(adv_proc(), label="adv")
        topo.engine.run()
    return hot_rtts, cold_rtts


class TestUndefendedRouter:
    def test_attack_succeeds_without_countermeasure(self):
        hot, cold = probe_campaign(NoPrivacyScheme)
        assert bayes_success(hot, cold) > 0.99


class TestAlwaysDelayDefense:
    def test_probes_indistinguishable(self):
        """Perfect privacy: disguised hits replay γ_C, so hot and cold
        probes draw from (nearly) the same distribution."""
        hot, cold = probe_campaign(AlwaysDelayScheme)
        success = bayes_success(hot, cold, bins=20)
        assert success < 0.75  # residual = jitter resampling, not signal

    def test_mean_rtts_close(self):
        hot, cold = probe_campaign(AlwaysDelayScheme)
        gap = abs(float(np.mean(hot)) - float(np.mean(cold)))
        spread = float(np.std(cold))
        assert gap < spread  # the means sit within one jitter sigma


class TestRandomCacheDefense:
    def test_single_probe_leak_bounded(self):
        """With K large relative to probes, a single probe per object is
        near-useless: hot objects still answer disguised misses."""
        scheme_factory = lambda: UniformRandomCache(  # noqa: E731
            K=100, rng=np.random.default_rng(7)
        )
        hot, cold = probe_campaign(scheme_factory)
        assert bayes_success(hot, cold, bins=20) < 0.75

    def test_naive_threshold_leaks_on_second_probe(self):
        """Knowing k, the adversary probes k+1 times: against the naive
        scheme (k=1) the second probe of victim-fetched content is a fast
        hit while never-fetched content still misses — near-perfect
        distinguishing.  Uniform-Random-Cache with K=100 keeps the second
        probe quiet (hit probability 2/K)."""

        def second_probe_campaign(scheme_factory, objects=20, trials=2):
            hot_rtts, cold_rtts = [], []
            for trial in range(trials):
                topo = local_lan(seed=300 + trial, scheme=scheme_factory())
                topo.producer.private_by_default = True
                hot = [f"/content/h{trial}-{i}" for i in range(objects)]
                cold = [f"/content/c{trial}-{i}" for i in range(objects)]

                def user_proc():
                    for name in hot:
                        result = yield from topo.user.fetch(name, private=True)
                        assert result is not None
                        yield Timeout(2.0)

                def adv_proc():
                    yield Timeout(1000.0)
                    for name, sink in [(n, hot_rtts) for n in hot] + [
                        (n, cold_rtts) for n in cold
                    ]:
                        yield from topo.adversary.fetch(name, private=True)
                        yield Timeout(2.0)
                        second = yield from topo.adversary.fetch(
                            name, private=True
                        )
                        if second is not None:
                            sink.append(second.rtt)
                        yield Timeout(2.0)

                topo.engine.spawn(user_proc(), label="user")
                topo.engine.spawn(adv_proc(), label="adv")
                topo.engine.run()
            return hot_rtts, cold_rtts

        naive_hot, naive_cold = second_probe_campaign(
            lambda: NaiveThresholdScheme(1)
        )
        uni_hot, uni_cold = second_probe_campaign(
            lambda: UniformRandomCache(K=100, rng=np.random.default_rng(3))
        )
        naive_success = bayes_success(naive_hot, naive_cold, bins=20)
        uni_success = bayes_success(uni_hot, uni_cold, bins=20)
        assert naive_success > 0.95
        assert uni_success < 0.75
        assert naive_success > uni_success


class TestBandwidthPreservation:
    def test_always_delay_still_serves_from_cache(self):
        """Disguised hits do not re-contact the producer (Section V-B:
        bandwidth utilization remains intact)."""
        topo = local_lan(seed=9, scheme=AlwaysDelayScheme())
        topo.producer.private_by_default = True

        def proc():
            yield from topo.user.fetch("/content/x", private=True)
            yield Timeout(100.0)
            yield from topo.adversary.fetch("/content/x", private=True)

        topo.engine.spawn(proc(), label="both")
        topo.engine.run()
        assert topo.producer.monitor.counter("data_served") == 1
        assert topo.router.monitor.counter("cs_disguised_hit") == 1


def delay_placement_leaks(placement, objects=40, trials=4):
    """Footnote 6 on the chain consumer/adversary -- R1 -- R2 -- R3 --
    producer, with Always-Delay at no router (``none``), at R1 only
    (``edge``) or at all three (``all``).  Returns (edge leak, depth leak,
    mean re-fetch latency ms): the Bayes distinguishability of R1-cached
    vs uncached content, then of content evicted from R1 but cached at R2
    vs uncached, then what a consumer pays to re-fetch from R2."""
    edge_cached, edge_cold, depth_cached, depth_cold, refetch = [], [], [], [], []
    for trial in range(trials):
        net = Network(rng=RngRegistry(500 + trial))
        for name in ("R1", "R2", "R3"):
            delays = placement == "all" or (placement == "edge" and name == "R1")
            net.add_router(
                name, scheme=AlwaysDelayScheme() if delays else NoPrivacyScheme()
            )
        consumer, adversary = net.add_consumer("c"), net.add_consumer("adv")
        net.add_producer("p", "/content", private=True)
        for a, b, base in (("c", "R1", 1.0), ("adv", "R1", 1.0), ("R1", "R2", 3.0),
                           ("R2", "R3", 3.0), ("R3", "p", 3.0)):
            net.connect(a, b, GaussianJitterDelay(base=base, jitter_std=0.08))
        net.add_route_chain("/content", "R1", "R2", "R3", "p")
        r1 = net["R1"]
        hot, cold, deep, quiet = (
            [f"/content/t{trial}-{kind}-{i}" for i in range(objects)]
            for kind in ("hot", "cold", "deep", "quiet")
        )

        def scenario():
            # The victim populates every router with `hot` and `deep`.
            for name in hot + deep:
                assert (yield from consumer.fetch(name, private=True)) is not None
                yield Timeout(2.0)
            # `deep` falls out of R1 only (edge eviction).
            for name in deep:
                r1.cs.remove(Name.parse(name))
            yield Timeout(50.0)
            for names, sink in ((hot, edge_cached), (cold, edge_cold),
                                (deep, depth_cached), (quiet, depth_cold)):
                for name in names:
                    result = yield from adversary.fetch(name, private=True)
                    sink.append(result.rtt)
                    yield Timeout(2.0)
            # A legitimate re-fetch of one edge-evicted item.
            r1.cs.remove(Name.parse(hot[0]))
            result = yield from consumer.fetch(hot[0], private=True)
            refetch.append(result.rtt)

        net.spawn(scenario(), "scenario")
        net.run()
    return (
        bayes_success(edge_cached, edge_cold, bins=25),
        bayes_success(depth_cached, depth_cold, bins=25),
        float(np.mean(refetch)),
    )


class TestDelayPlacement:
    def test_edge_only_closes_the_edge_oracle_and_leaks_depth(self):
        none_edge, none_depth, _ = delay_placement_leaks("none")
        edge_edge, edge_depth, edge_latency = delay_placement_leaks("edge")
        all_edge, all_depth, all_latency = delay_placement_leaks("all")
        # Undefended: both oracles wide open.
        assert none_edge > 0.95 and none_depth > 0.95
        # Edge-only placement closes the primary (consumer-facing) oracle...
        assert edge_edge < 0.75
        # ...but leaks the deeper-cache signal the paper's footnote worries
        # about: R2-cached content returns visibly faster than uncached.
        assert edge_depth > 0.9
        # Delaying everywhere closes both oracles...
        assert all_edge < 0.75 and all_depth < 0.75
        # ...at the cost of full-path latency on every re-fetch, where the
        # edge-only deployment recovers from R2 quickly.
        assert all_latency > edge_latency + 3.0
