"""RetryPolicy: backoff arithmetic, jitter, validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.errors import FaultConfigError
from repro.faults.retry import RetryPolicy


class TestValidation:
    def test_defaults_valid(self):
        policy = RetryPolicy()
        assert policy.attempts == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"retries": -1},
            {"timeout": 0.0},
            {"backoff": 0.5},
            {"jitter": 1.0},
            {"jitter": -0.1},
            {"timeout": 100.0, "max_timeout": 50.0},
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(FaultConfigError):
            RetryPolicy(**kwargs)

    @pytest.mark.parametrize(
        "field", ["timeout", "backoff", "max_timeout", "max_delay", "deadline"]
    )
    def test_rejects_nan(self, field):
        # A NaN fails every comparison: a guard written ``x < bound`` lets
        # it through to NaN per-attempt waits or a silently ignored cap.
        with pytest.raises(FaultConfigError):
            RetryPolicy(**{field: float("nan")})


class TestBackoff:
    def test_exponential_growth(self):
        policy = RetryPolicy(retries=3, timeout=100.0, backoff=2.0)
        assert [policy.timeout_for(i) for i in range(4)] == [
            100.0, 200.0, 400.0, 800.0,
        ]
        assert policy.total_budget() == 1500.0

    def test_max_timeout_clamps(self):
        policy = RetryPolicy(retries=5, timeout=100.0, backoff=2.0, max_timeout=300.0)
        assert policy.timeout_for(4) == 300.0

    def test_fixed_timeout_with_unit_backoff(self):
        policy = RetryPolicy(retries=2, timeout=50.0, backoff=1.0)
        assert [policy.timeout_for(i) for i in range(3)] == [50.0, 50.0, 50.0]

    def test_negative_attempt_rejected(self):
        with pytest.raises(FaultConfigError):
            RetryPolicy().timeout_for(-1)


class TestJitter:
    def test_jitter_stays_in_band_and_is_seeded(self):
        policy = RetryPolicy(retries=0, timeout=100.0, jitter=0.25)
        draws = [
            policy.timeout_for(0, np.random.default_rng(seed))
            for seed in range(200)
        ]
        assert all(75.0 <= value <= 125.0 for value in draws)
        assert len(set(round(v, 9) for v in draws)) > 100  # actually varies
        # Same seed, same draw: reproducible.
        assert policy.timeout_for(0, np.random.default_rng(7)) == policy.timeout_for(
            0, np.random.default_rng(7)
        )

    def test_no_rng_means_no_jitter(self):
        policy = RetryPolicy(retries=0, timeout=100.0, jitter=0.25)
        assert policy.timeout_for(0) == 100.0


class TestMaxDelay:
    def test_max_delay_caps_backoff(self):
        policy = RetryPolicy(retries=5, timeout=100.0, backoff=2.0, max_delay=500.0)
        assert [policy.timeout_for(i) for i in range(6)] == [
            100.0, 200.0, 400.0, 500.0, 500.0, 500.0,
        ]

    def test_effective_cap_is_min_of_max_delay_and_max_timeout(self):
        assert RetryPolicy(
            timeout=100.0, max_delay=300.0, max_timeout=700.0
        ).delay_cap == 300.0
        assert RetryPolicy(
            timeout=100.0, max_delay=700.0, max_timeout=300.0
        ).delay_cap == 300.0
        assert RetryPolicy(timeout=100.0).delay_cap is None

    def test_jitter_never_exceeds_cap(self):
        policy = RetryPolicy(
            retries=6, timeout=100.0, backoff=2.0, jitter=0.5, max_delay=400.0
        )
        for seed in range(100):
            rng = np.random.default_rng(seed)
            for attempt in range(policy.attempts):
                assert policy.timeout_for(attempt, rng) <= 400.0

    def test_capped_attempt_still_consumes_one_rng_draw(self):
        # Whether or not the cap engages, each attempt draws exactly once,
        # so jitter sequences stay aligned across capped/uncapped policies.
        capped = RetryPolicy(retries=4, timeout=100.0, backoff=2.0,
                             jitter=0.3, max_delay=150.0)
        free = RetryPolicy(retries=4, timeout=100.0, backoff=2.0, jitter=0.3)
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        for attempt in range(5):
            got = capped.timeout_for(attempt, rng_a)
            raw = free.timeout_for(attempt, rng_b)
            assert got == min(raw, 150.0)

    def test_seeded_jitter_sequence_is_deterministic(self):
        policy = RetryPolicy(retries=4, timeout=50.0, backoff=2.0,
                             jitter=0.25, max_delay=300.0)
        seq1 = [policy.timeout_for(i, np.random.default_rng(99)) for i in range(5)]
        seq2 = [policy.timeout_for(i, np.random.default_rng(99)) for i in range(5)]
        assert seq1 == seq2

    def test_rejects_max_delay_below_timeout(self):
        with pytest.raises(FaultConfigError):
            RetryPolicy(timeout=100.0, max_delay=50.0)


class TestDeadline:
    def test_deadline_bounds_total_budget(self):
        policy = RetryPolicy(retries=3, timeout=100.0, backoff=2.0,
                             deadline=600.0)
        assert policy.total_budget() == 600.0

    def test_loose_deadline_leaves_budget_alone(self):
        policy = RetryPolicy(retries=3, timeout=100.0, backoff=2.0,
                             deadline=10_000.0)
        assert policy.total_budget() == 1500.0

    def test_rejects_nonpositive_deadline(self):
        with pytest.raises(FaultConfigError):
            RetryPolicy(deadline=0.0)
        with pytest.raises(FaultConfigError):
            RetryPolicy(deadline=-5.0)
