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
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(FaultConfigError):
            RetryPolicy(**kwargs)

    @pytest.mark.parametrize("field", ["timeout", "backoff", "jitter"])
    def test_rejects_nan(self, field):
        # A NaN fails every comparison: a guard written ``x < bound`` lets
        # it through to NaN per-attempt waits or a NaN budget.
        with pytest.raises(FaultConfigError):
            RetryPolicy(**{field: float("nan")})


class TestBackoff:
    def test_exponential_growth(self):
        policy = RetryPolicy(retries=3, timeout=100.0, backoff=2.0)
        assert [policy.timeout_for(i) for i in range(4)] == [
            100.0, 200.0, 400.0, 800.0,
        ]
        assert policy.total_budget() == 1500.0

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

    def test_seeded_jitter_sequence_is_deterministic(self):
        policy = RetryPolicy(retries=4, timeout=50.0, backoff=2.0, jitter=0.25)
        seq1 = [policy.timeout_for(i, np.random.default_rng(99)) for i in range(5)]
        seq2 = [policy.timeout_for(i, np.random.default_rng(99)) for i in range(5)]
        assert seq1 == seq2

    def test_each_jittered_attempt_draws_once(self):
        policy = RetryPolicy(retries=4, timeout=100.0, backoff=2.0, jitter=0.3)
        rng, twin = np.random.default_rng(11), np.random.default_rng(11)
        for attempt in range(policy.attempts):
            policy.timeout_for(attempt, rng)
            twin.random()
        assert rng.random() == twin.random()

    def test_no_rng_means_no_jitter(self):
        policy = RetryPolicy(retries=0, timeout=100.0, jitter=0.25)
        assert policy.timeout_for(0) == 100.0
