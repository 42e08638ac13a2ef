"""Unit tests for artificial-delay policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.classifier import bayes_success
from repro.core.schemes.delay_policies import (
    ConstantDelay,
    ContentSpecificDelay,
    DynamicDelay,
)
from tests.conftest import make_entry


class TestConstantDelay:
    def test_returns_gamma_regardless_of_entry(self):
        policy = ConstantDelay(25.0)
        assert policy.delay_for(make_entry(fetch_delay=5.0), now=0.0) == 25.0
        assert policy.delay_for(make_entry(fetch_delay=500.0), now=0.0) == 25.0

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            ConstantDelay(-1.0)

    def test_zero_gamma_allowed(self):
        assert ConstantDelay(0.0).delay_for(make_entry(), now=0.0) == 0.0


class TestContentSpecificDelay:
    def test_replays_recorded_fetch_delay(self):
        policy = ContentSpecificDelay()
        assert policy.delay_for(make_entry(fetch_delay=42.0), now=0.0) == 42.0

    def test_different_entries_different_delays(self):
        policy = ContentSpecificDelay()
        near = make_entry(uri="/near", fetch_delay=2.0)
        far = make_entry(uri="/far", fetch_delay=200.0)
        assert policy.delay_for(near, 0.0) == 2.0
        assert policy.delay_for(far, 0.0) == 200.0


class TestDynamicDelay:
    def test_starts_at_fetch_delay(self):
        policy = DynamicDelay(floor=1.0, decay=0.9)
        entry = make_entry(fetch_delay=100.0)
        entry.access_count = 0
        assert policy.delay_for(entry, 0.0) == 100.0

    def test_decays_with_popularity(self):
        policy = DynamicDelay(floor=1.0, decay=0.5)
        entry = make_entry(fetch_delay=100.0)
        entry.access_count = 2
        assert policy.delay_for(entry, 0.0) == pytest.approx(25.0)

    def test_never_below_floor(self):
        """Definition IV.2 constraint: never faster than two-hop content."""
        policy = DynamicDelay(floor=8.0, decay=0.5)
        entry = make_entry(fetch_delay=100.0)
        entry.access_count = 50
        assert policy.delay_for(entry, 0.0) == 8.0

    def test_monotone_nonincreasing_in_popularity(self):
        policy = DynamicDelay(floor=2.0, decay=0.8)
        entry = make_entry(fetch_delay=60.0)
        delays = []
        for count in range(20):
            entry.access_count = count
            delays.append(policy.delay_for(entry, 0.0))
        assert all(a >= b for a, b in zip(delays, delays[1:]))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            DynamicDelay(floor=-1.0)
        with pytest.raises(ValueError):
            DynamicDelay(floor=1.0, decay=0.0)
        with pytest.raises(ValueError):
            DynamicDelay(floor=1.0, decay=1.5)


class TestPolicyAblation:
    """Section V-B's three policies over 400 contents with log-normal
    producer distances (5..200+ ms).  Leak is the Bayes distinguishability
    of disguised hits from genuine misses (0.5 = hidden); penalty is the
    mean artificial delay."""

    def test_content_specific_hides_what_constant_leaks(self):
        rng = np.random.default_rng(17)
        entries = []
        for i in range(400):
            fetch_delay = float(5.0 + 20.0 * rng.lognormal(0.8, 0.7))
            entry = make_entry(
                uri=f"/pop/obj-{i}", fetch_delay=fetch_delay, producer_private=True
            )
            entry.access_count = int(rng.integers(0, 20))
            entries.append(entry)

        def evaluate(policy):
            noise = np.random.default_rng(18)
            disguised, genuine = [], []
            for entry in entries:
                disguised.append(
                    policy.delay_for(entry, now=0.0) + noise.normal(0.0, 1.5)
                )
                genuine.append(entry.fetch_delay + noise.normal(0.0, 1.5))
            penalty = float(np.mean([policy.delay_for(e, 0.0) for e in entries]))
            return bayes_success(disguised, genuine, bins=40), penalty

        mean_fetch = float(np.mean([e.fetch_delay for e in entries]))
        constant = [evaluate(ConstantDelay(g)) for g in (10.0, mean_fetch, 250.0)]
        specific_leak, specific_penalty = evaluate(ContentSpecificDelay())
        dynamic_leak, dynamic_penalty = evaluate(DynamicDelay(floor=8.0, decay=0.9))
        # Content-specific replay is (near) perfectly hidden.
        assert specific_leak < 0.62
        # Every constant gamma (too low, the mean, too high) leaks far more.
        for leak, _penalty in constant:
            assert leak > specific_leak + 0.1
        # The too-high constant pays ~3x the latency of the faithful replay.
        assert constant[2][1] > 2 * specific_penalty
        # Dynamic trades a bounded leak for lower average delay.
        assert dynamic_penalty < specific_penalty
        assert dynamic_leak > specific_leak
