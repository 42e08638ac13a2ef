"""Unit tests for the trace replay harness (the Figure 5 engine)."""

from __future__ import annotations

import pytest

from repro.core.schemes.always_delay import AlwaysDelayScheme
from repro.core.schemes.no_privacy import NoPrivacyScheme
from repro.core.schemes.registry import SchemeSpec
from repro.ndn.name import Name
from repro.perf.parallel import ReplaySpec, run_replay_sweep
from repro.workload.ircache import small_test_trace
from repro.workload.marking import ContentMarking, NoMarking
from repro.workload.replay import (
    CachedRouter,
    ReplayStats,
    RequestOutcome,
    replay,
)
from repro.workload.streaming import Request


def simple_trace(pattern):
    """Build a request list from uris at times 0, 1, ..., single user."""
    return [
        Request(time=float(i), user=0, name=Name.parse(uri))
        for i, uri in enumerate(pattern)
    ]


class TestCachedRouter:
    def test_first_request_misses_then_hits(self):
        router = CachedRouter()
        name = Name.parse("/a")
        assert router.request(name, False, 0.0) is RequestOutcome.MISS
        assert router.request(name, False, 1.0) is RequestOutcome.HIT

    def test_always_delay_private_disguises(self):
        router = CachedRouter(scheme=AlwaysDelayScheme())
        name = Name.parse("/a")
        router.request(name, True, 0.0)
        assert router.request(name, True, 1.0) is RequestOutcome.DISGUISED_HIT

    def test_trigger_rule_demotes_in_replay(self):
        router = CachedRouter(scheme=AlwaysDelayScheme())
        name = Name.parse("/a")
        router.request(name, True, 0.0)
        assert router.request(name, False, 1.0) is RequestOutcome.HIT
        # Demotion is sticky: later private requests still observe hits.
        assert router.request(name, True, 2.0) is RequestOutcome.HIT

    def test_capacity_evicts(self):
        router = CachedRouter(cache_size=1)
        router.request(Name.parse("/a"), False, 0.0)
        router.request(Name.parse("/b"), False, 1.0)
        assert router.request(Name.parse("/a"), False, 2.0) is RequestOutcome.MISS


class TestReplayAccounting:
    def test_hit_rate_simple_pattern(self):
        trace = simple_trace(["/a", "/a", "/a", "/b"])
        stats = replay(trace)
        assert stats.requests == 4
        assert stats.hits == 2
        assert stats.misses == 2
        assert stats.hit_rate == pytest.approx(0.5)

    def test_unlimited_cache_reaches_max_hit_rate(self):
        trace = small_test_trace(requests=3000, seed=2)
        stats = replay(trace)
        assert stats.hit_rate == pytest.approx(trace.max_hit_rate)

    def test_smaller_cache_lower_hit_rate(self):
        trace = small_test_trace(requests=4000, seed=3)
        unlimited = replay(trace).hit_rate
        tiny = replay(trace, cache_size=20)
        assert tiny.hit_rate < unlimited
        assert tiny.evictions > 0

    def test_always_delay_loses_only_private_hits(self):
        trace = small_test_trace(requests=3000, seed=4)
        baseline = replay(trace, scheme=NoPrivacyScheme(), marking=NoMarking())
        private_all = replay(
            trace, scheme=AlwaysDelayScheme(), marking=ContentMarking(1.0)
        )
        assert private_all.hits == 0
        assert private_all.disguised_hits == baseline.hits
        # Bandwidth accounting is unchanged: disguised hits save upstream.
        assert private_all.bandwidth_hit_rate == pytest.approx(
            baseline.hit_rate
        )

    def test_scheme_ordering_matches_paper(self):
        """No-Privacy >= Exponential >= Uniform >= Always-Delay (Fig. 5a)."""
        trace = small_test_trace(requests=6000, seed=5)
        marking = ContentMarking(0.4)
        rates = {}
        for label, scheme in (
            ("none", NoPrivacyScheme()),
            ("expo", SchemeSpec("exponential", {"k": 5, "epsilon": 0.05, "delta": 0.1}).build()),
            ("uni", SchemeSpec("uniform", {"k": 5, "delta": 0.1}).build()),
            ("delay", AlwaysDelayScheme()),
        ):
            rates[label] = replay(trace, scheme=scheme, marking=marking).hit_rate
        assert rates["none"] >= rates["expo"] >= rates["uni"] >= rates["delay"]
        assert rates["none"] > rates["delay"]  # strict separation overall

    def test_private_accounting(self):
        trace = simple_trace(["/a", "/a", "/b", "/b"])
        marking = ContentMarking(1.0)
        stats = replay(trace, scheme=NoPrivacyScheme(), marking=marking)
        assert stats.private_requests == 4
        assert stats.private_hits == 2
        assert stats.private_hit_rate == pytest.approx(0.5)

    def test_artificial_delay_total(self):
        trace = simple_trace(["/a", "/a", "/a"])
        stats = replay(
            trace, scheme=AlwaysDelayScheme(), marking=ContentMarking(1.0),
            fetch_delay=50.0,
        )
        assert stats.disguised_hits == 2
        assert stats.artificial_delay_total == pytest.approx(100.0)

    def test_empty_trace(self):
        stats = replay([])
        assert stats.requests == 0
        assert stats.hit_rate == 0.0
        assert stats.bandwidth_hit_rate == 0.0
        assert stats.private_hit_rate == 0.0

    def test_replay_reproducible(self):
        trace = small_test_trace(requests=2000, seed=6)
        scheme_factory = lambda: SchemeSpec("uniform", {"k": 5, "delta": 0.1}).build()  # noqa: E731
        a = replay(trace, scheme=scheme_factory(), marking=ContentMarking(0.3))
        b = replay(trace, scheme=scheme_factory(), marking=ContentMarking(0.3))
        assert a.hits == b.hits
        assert a.disguised_hits == b.disguised_hits


class TestDelayedHitRefresh:
    def test_delayed_hits_refresh_lru(self):
        """Section VII: the entry becomes fresh even if the response is
        delayed — the disguised content must not age out of LRU."""
        scheme = AlwaysDelayScheme()
        marking = ContentMarking(1.0)
        # /a requested (private), then /b and /c fill the 2-entry cache.
        trace = simple_trace(["/a", "/b", "/a", "/c", "/a"])
        stats = replay(trace, scheme=scheme, marking=marking, cache_size=2)
        # /a is refreshed at each touch, so it survives; every repeat of /a
        # is a disguised hit, not a genuine re-fetch miss.
        assert stats.disguised_hits == 2

    def test_refresh_preserves_bandwidth_savings_on_the_fig5_trace(
        self, ircache_trace
    ):
        """Turning the refresh off (only observable hits update recency)
        lets popular private content age out of small caches while it is
        still serving disguised misses: 40% private, three sizes."""
        sizes = (2000, 8000, 32000)
        specs = [
            ReplaySpec(
                scheme=scheme, cache_size=size,
                marking=ContentMarking(0.4), refresh_delayed_hits=refresh,
            )
            for scheme in (
                SchemeSpec("exponential", {"k": 5, "epsilon": 0.005, "delta": 0.01}),
                SchemeSpec("always-delay"),
            )
            for size in sizes
            for refresh in (True, False)
        ]
        stats = run_replay_sweep(specs, trace=ircache_trace)
        pairs = [
            (spec.cache_size, with_refresh, without)
            for spec, with_refresh, without in zip(specs[::2], stats[::2], stats[1::2])
        ]
        # The refresh costs nothing in bandwidth hit rate anywhere...
        for _size, with_refresh, without in pairs:
            assert (
                100 * with_refresh.bandwidth_hit_rate
                >= 100 * without.bandwidth_hit_rate - 0.05
            )
        # ...and earns some at a bounded size.
        assert any(
            100 * with_refresh.bandwidth_hit_rate
            > 100 * without.bandwidth_hit_rate + 0.1
            for size, with_refresh, without in pairs
            if size != sizes[-1]
        )


class TestReplacementPolicy:
    def test_recency_and_frequency_beat_blind_policies_on_the_fig5_trace(
        self, ircache_trace
    ):
        """The paper fixes LRU; on the Zipf trace under eviction pressure
        LRU beats FIFO and Random, and every policy gains from a bigger
        cache (Exponential-Random-Cache, 20% private)."""
        policies, sizes = ("lru", "lfu", "fifo", "random"), (4000, 16000)
        specs = [
            ReplaySpec(
                scheme=SchemeSpec("exponential", {"k": 5, "epsilon": 0.005, "delta": 0.01}),
                cache_size=size, marking=ContentMarking(0.2), policy=policy,
            )
            for policy in policies
            for size in sizes
        ]
        stats = dict(zip(
            ((s.policy, s.cache_size) for s in specs),
            run_replay_sweep(specs, trace=ircache_trace),
        ))
        for size in sizes:
            # Both sizes are contested: the cache turned over at least once
            # (until then every policy evicts first-pass objects and ties).
            assert stats["fifo", size].evictions > size, "shrink the sizes"
            assert stats["lru", size].hit_rate > stats["fifo", size].hit_rate
            assert stats["lru", size].hit_rate > stats["random", size].hit_rate
        for policy in policies:
            assert stats[policy, sizes[0]].hit_rate < stats[policy, sizes[1]].hit_rate
