"""Unit tests for the correlation attack and the grouping countermeasure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.correlation import (
    correlation_attack_advantage,
    probe_correlated_set,
)
from repro.core.privacy.guarantees import solve_uniform_K
from repro.core.schemes.grouping import NamespaceGrouping
from repro.core.schemes.uniform import UniformRandomCache
from tests.conftest import make_entry


def ungrouped(rng):
    return UniformRandomCache(K=10, rng=rng)


def grouped(rng):
    return UniformRandomCache(K=10, rng=rng, grouping=NamespaceGrouping(depth=2))


class TestProbeCorrelatedSet:
    def test_unrequested_set_never_yields_hits(self):
        """CM cannot hide misses: fresh content always misses first."""
        scheme = ungrouped(np.random.default_rng(0))
        entries = [make_entry(uri=f"/site/video/frag-{i}") for i in range(20)]
        verdict = probe_correlated_set(scheme, entries, previously_requested=False)
        assert verdict.hits_observed == 0
        assert not verdict.decided_requested

    def test_requested_large_set_usually_detected(self):
        detections = 0
        for seed in range(50):
            scheme = ungrouped(np.random.default_rng(seed))
            entries = [make_entry(uri=f"/site/video/frag-{i}") for i in range(30)]
            verdict = probe_correlated_set(
                scheme, entries, previously_requested=True, requests_per_object=3
            )
            detections += int(verdict.decided_requested)
        # Per-object hit chance = P[k_C < 3] = 3/10; over 30 objects
        # detection is nearly certain: 1 - 0.7^30 ≈ 0.99997.
        assert detections >= 48

    def test_empty_set_rejected(self):
        scheme = ungrouped(np.random.default_rng(0))
        with pytest.raises(ValueError):
            probe_correlated_set(scheme, [], previously_requested=True)

    def test_invalid_request_count(self):
        scheme = ungrouped(np.random.default_rng(0))
        with pytest.raises(ValueError):
            probe_correlated_set(
                scheme, [make_entry()], previously_requested=True,
                requests_per_object=0,
            )


class TestAdvantage:
    def test_ungrouped_advantage_grows_with_set_size(self):
        small = correlation_attack_advantage(ungrouped, group_size=2, trials=400)
        large = correlation_attack_advantage(ungrouped, group_size=25, trials=400)
        assert large > small

    def test_ungrouped_matches_analytic(self):
        """Advantage ≈ 1 − (1 − v/K)^m with v=2, K=10, m=10."""
        advantage = correlation_attack_advantage(
            ungrouped, group_size=10, requests_per_object=2, trials=1500
        )
        analytic = 1 - (1 - 2 / 10) ** 10
        assert advantage == pytest.approx(analytic, abs=0.05)

    def test_grouped_probes_sample_single_trajectory(self):
        """Section VI's fix, stated precisely: with one shared (c, k) per
        group, probing m distinct members walks a single Algorithm 1
        trajectory — the adversary gets one k_C sample, not m independent
        draws.  The observable across members is therefore a monotone
        miss-prefix-then-hits pattern, identical in law to probing a
        single object m times (which is what the theorems bound)."""
        from repro.core.schemes.base import DecisionKind

        for seed in range(30):
            scheme = grouped(np.random.default_rng(seed))
            entries = [make_entry(uri=f"/site/video/frag-{i}") for i in range(15)]
            for entry in entries:
                scheme.on_insert(entry, private=True, now=0.0)
            outputs = [
                scheme.on_request(e, private=True, now=0.0).kind is DecisionKind.HIT
                for e in entries
            ]
            first_hit = outputs.index(True) if True in outputs else len(outputs)
            assert all(outputs[first_hit:]), "hits must persist once started"
            assert not any(outputs[:first_hit]), "prefix must be all misses"

    def test_ungrouped_probes_sample_independent_draws(self):
        """Without grouping the same probe pattern mixes independent
        per-object draws — hits and misses interleave, which is exactly
        the extra information the correlation attack exploits."""
        from repro.core.schemes.base import DecisionKind

        interleavings = 0
        for seed in range(30):
            scheme = ungrouped(np.random.default_rng(seed))
            entries = [make_entry(uri=f"/site/video/frag-{i}") for i in range(15)]
            for entry in entries:
                scheme.on_insert(entry, private=True, now=0.0)
                for _ in range(4):  # push some objects past their k_C
                    scheme.on_request(entry, private=True, now=0.0)
            outputs = [
                scheme.on_request(e, private=True, now=0.0).kind is DecisionKind.HIT
                for e in entries
            ]
            # Count miss-after-hit transitions: impossible for grouped.
            for a, b in zip(outputs, outputs[1:]):
                if a and not b:
                    interleavings += 1
        assert interleavings > 0

    def test_grouping_does_not_hide_popular_groups(self):
        """Past k total group requests the content is 'popular' and hits
        are served — grouping preserves utility rather than hiding
        popularity (Definition IV.3 only protects counts up to k)."""
        grouped_adv = correlation_attack_advantage(
            grouped, group_size=25, requests_per_object=3, trials=200
        )
        assert grouped_adv > 0.9

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            correlation_attack_advantage(ungrouped, group_size=0)
        with pytest.raises(ValueError):
            correlation_attack_advantage(ungrouped, group_size=1, trials=0)


class TestGroupCalibration:
    """Section VI: a per-object Uniform-Random-Cache calibrated to a nominal
    (k, 0, δ) guarantee violates δ against a correlated set (the adversary
    samples m independent k_C draws: advantage 1 − (1 − x/K)^m); a
    group-calibrated scheme, one threshold per namespace with k scaled to
    the group's request count, keeps it.  A 25-fragment video, each
    fragment fetched twice, probed once."""

    def test_group_calibration_holds_the_nominal_delta(self):
        m, x, delta = 25, 2, 0.05
        K_object = solve_uniform_K(2, delta)
        K_group = solve_uniform_K(m * x, delta)
        ungrouped_advantage = correlation_attack_advantage(
            lambda rng: UniformRandomCache(K=K_object, rng=rng),
            group_size=m, requests_per_object=x, trials=2000,
        )
        grouped_advantage = correlation_attack_advantage(
            lambda rng: UniformRandomCache(
                K=K_group, rng=rng, grouping=NamespaceGrouping(depth=2)
            ),
            group_size=m, requests_per_object=x, trials=2000,
        )
        # Per-object calibration blows through the nominal delta by an
        # order of magnitude (the paper's insecurity)...
        assert ungrouped_advantage == pytest.approx(
            1 - (1 - x / K_object) ** m, abs=0.06
        )
        assert ungrouped_advantage > 5 * delta
        # ...group calibration stays within the nominal budget.
        assert grouped_advantage <= delta + 0.03
