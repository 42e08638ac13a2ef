"""Unit tests for Random-Cache (Algorithm 1) and its instantiations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.privacy.distributions import DegenerateK, UniformK
from repro.core.schemes.base import DecisionKind
from repro.core.schemes.exponential import ExponentialRandomCache
from repro.core.schemes.grouping import NamespaceGrouping
from repro.core.schemes.naive_threshold import NaiveThresholdScheme
from repro.core.schemes.random_cache import RandomCacheScheme
from repro.core.schemes.registry import SchemeSpec
from repro.core.schemes.uniform import UniformRandomCache
from tests.conftest import make_entry


def scheme_with_k(k: int) -> RandomCacheScheme:
    """Random-Cache with a deterministic threshold (easier assertions)."""
    return RandomCacheScheme(DegenerateK(k), rng=np.random.default_rng(0))


class TestAlgorithmOne:
    def test_first_k_requests_after_insert_are_misses(self):
        scheme = scheme_with_k(3)
        entry = make_entry()
        scheme.on_insert(entry, private=True, now=0.0)
        kinds = [
            scheme.on_request(entry, private=True, now=0.0).kind for _ in range(5)
        ]
        assert kinds == [
            DecisionKind.DELAYED_HIT,
            DecisionKind.DELAYED_HIT,
            DecisionKind.DELAYED_HIT,
            DecisionKind.HIT,
            DecisionKind.HIT,
        ]

    def test_k_zero_hits_immediately(self):
        scheme = scheme_with_k(0)
        entry = make_entry()
        scheme.on_insert(entry, private=True, now=0.0)
        assert scheme.on_request(entry, private=True, now=0.0).kind is DecisionKind.HIT

    def test_disguised_miss_uses_content_specific_delay(self):
        scheme = scheme_with_k(2)
        entry = make_entry(fetch_delay=77.0)
        scheme.on_insert(entry, private=True, now=0.0)
        decision = scheme.on_request(entry, private=True, now=0.0)
        assert decision.kind is DecisionKind.DELAYED_HIT
        assert decision.delay == 77.0

    def test_non_private_insert_draws_no_state(self):
        scheme = scheme_with_k(2)
        entry = make_entry(private=False)
        scheme.on_insert(entry, private=False, now=0.0)
        assert scheme.tracked_groups == 0

    def test_non_private_request_is_plain_hit(self):
        scheme = scheme_with_k(5)
        entry = make_entry()
        scheme.on_insert(entry, private=True, now=0.0)
        assert scheme.on_request(entry, private=False, now=0.0).kind is DecisionKind.HIT

    def test_late_privacy_adoption(self):
        # An entry never registered with the scheme still gets consistent
        # treatment when first seen as private.
        scheme = scheme_with_k(1)
        entry = make_entry()
        decision = scheme.on_request(entry, private=True, now=0.0)
        assert decision.kind is DecisionKind.DELAYED_HIT
        assert scheme.tracked_groups == 1


class TestStateLifecycle:
    def test_evict_drops_group_state(self):
        scheme = scheme_with_k(2)
        entry = make_entry()
        scheme.on_insert(entry, private=True, now=0.0)
        assert scheme.tracked_groups == 1
        scheme.on_evict(entry)
        assert scheme.tracked_groups == 0

    def test_reinsert_after_evict_redraws_k(self):
        scheme = UniformRandomCache(K=1000, rng=np.random.default_rng(42))
        entry = make_entry()
        scheme.on_insert(entry, private=True, now=0.0)
        k1 = scheme.group_state(entry.name).k
        scheme.on_evict(entry)
        scheme.on_insert(entry, private=True, now=0.0)
        k2 = scheme.group_state(entry.name).k
        assert k1 != k2  # overwhelmingly likely with K=1000

    def test_evict_unknown_entry_is_noop(self):
        scheme = scheme_with_k(2)
        scheme.on_evict(make_entry())
        assert scheme.tracked_groups == 0

    def test_reset_clears_everything(self):
        scheme = scheme_with_k(2)
        scheme.on_insert(make_entry(), private=True, now=0.0)
        scheme.reset()
        assert scheme.tracked_groups == 0


class TestGrouping:
    def test_grouped_entries_share_counter(self):
        scheme = RandomCacheScheme(
            DegenerateK(2),
            rng=np.random.default_rng(0),
            grouping=NamespaceGrouping(depth=1),
        )
        frag_a = make_entry(uri="/video/frag-0")
        frag_b = make_entry(uri="/video/frag-1")
        scheme.on_insert(frag_a, private=True, now=0.0)
        scheme.on_insert(frag_b, private=True, now=0.0)
        assert scheme.tracked_groups == 1
        # Two misses consumed across the group, third request hits.
        assert scheme.on_request(frag_a, True, 0.0).kind is DecisionKind.DELAYED_HIT
        assert scheme.on_request(frag_b, True, 0.0).kind is DecisionKind.DELAYED_HIT
        assert scheme.on_request(frag_a, True, 0.0).kind is DecisionKind.HIT

    def test_group_state_survives_partial_eviction(self):
        scheme = RandomCacheScheme(
            DegenerateK(1),
            rng=np.random.default_rng(0),
            grouping=NamespaceGrouping(depth=1),
        )
        frag_a = make_entry(uri="/video/frag-0")
        frag_b = make_entry(uri="/video/frag-1")
        scheme.on_insert(frag_a, private=True, now=0.0)
        scheme.on_insert(frag_b, private=True, now=0.0)
        scheme.on_evict(frag_a)
        assert scheme.tracked_groups == 1
        scheme.on_evict(frag_b)
        assert scheme.tracked_groups == 0

    def test_ungrouped_entries_are_independent(self):
        scheme = scheme_with_k(1)
        a, b = make_entry(uri="/x/a"), make_entry(uri="/x/b")
        scheme.on_insert(a, private=True, now=0.0)
        scheme.on_insert(b, private=True, now=0.0)
        assert scheme.tracked_groups == 2


class TestInstantiations:
    def test_naive_threshold_is_deterministic(self):
        scheme = NaiveThresholdScheme(k=4)
        entry = make_entry()
        scheme.on_insert(entry, private=True, now=0.0)
        misses = sum(
            scheme.on_request(entry, True, 0.0).kind is DecisionKind.DELAYED_HIT
            for _ in range(10)
        )
        assert misses == 4

    def test_uniform_k_within_domain(self):
        scheme = UniformRandomCache(K=8, rng=np.random.default_rng(0))
        for i in range(100):
            entry = make_entry(uri=f"/obj/{i}")
            scheme.on_insert(entry, private=True, now=0.0)
            assert 0 <= scheme.group_state(entry.name).k < 8

    def test_exponential_k_within_domain(self):
        scheme = ExponentialRandomCache(
            alpha=0.5, K=10, rng=np.random.default_rng(0)
        )
        for i in range(200):
            entry = make_entry(uri=f"/obj/{i}")
            scheme.on_insert(entry, private=True, now=0.0)
            assert 0 <= scheme.group_state(entry.name).k < 10

    def test_exponential_favors_small_k(self):
        scheme = ExponentialRandomCache(
            alpha=0.3, K=20, rng=np.random.default_rng(0)
        )
        ks = []
        for i in range(500):
            entry = make_entry(uri=f"/obj/{i}")
            scheme.on_insert(entry, private=True, now=0.0)
            ks.append(scheme.group_state(entry.name).k)
        # Geometric with alpha=0.3: ~70% of draws are 0.
        assert np.mean(np.asarray(ks) == 0) > 0.55

    def test_for_privacy_target_constructors(self):
        uni = SchemeSpec("uniform", {"k": 5, "delta": 0.05}).build()
        assert uni.K == 200
        expo = SchemeSpec("exponential", {"k": 5, "epsilon": 0.04, "delta": 0.05}).build()
        assert expo.alpha == pytest.approx(np.exp(-0.04 / 5))
        assert expo.K is not None
