"""Unit tests for the synthetic IRCache trace generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workload import compiled, ircache
from repro.workload.compiled import _occurrence_index
from repro.workload.ircache import (
    IrcacheConfig,
    IrcacheGenerator,
    _SessionState,
    small_test_trace,
)


class TestConfigValidation:
    def test_defaults_mirror_paper_scale(self):
        cfg = IrcacheConfig()
        assert cfg.users == 185           # the trace's user population
        assert cfg.duration_hours == 24.0  # 24-hour capture
        assert len(cfg.diurnal) == 24

    @pytest.mark.parametrize("field,value", [
        ("requests", 0),
        ("users", 0),
        ("objects", 0),
        ("sites", 0),
        ("duration_hours", 0.0),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            IrcacheConfig(**{field: value})

    def test_invalid_diurnal_rejected(self):
        with pytest.raises(ValueError):
            IrcacheConfig(diurnal=())
        with pytest.raises(ValueError):
            IrcacheConfig(diurnal=(0.5, -0.1))


class TestGeneration:
    @pytest.fixture(scope="class")
    def trace(self):
        config = IrcacheConfig(
            requests=20_000, users=185, objects=30_000, sites=200, seed=1
        )
        return IrcacheGenerator(config).generate()

    def test_request_count(self, trace):
        assert trace.n_requests == 20_000

    def test_sorted_by_time(self, trace):
        times = [r.time for r in trace]
        assert times == sorted(times)

    def test_within_duration(self, trace):
        assert trace.times[0] >= 0.0
        assert trace.times[-1] <= 24 * 3_600_000.0

    def test_all_users_possible(self, trace):
        assert len(np.unique(trace.users)) > 100  # heavy-tailed but broad

    def test_names_have_site_object_structure(self, trace):
        name = trace.names[trace.ids[0]]
        assert len(name) == 2
        assert name[0].startswith("s")
        assert name[1].startswith("o")

    def test_object_site_assignment_is_stable(self, trace):
        """Every occurrence of an object maps to the same site."""
        seen = {}
        for request in trace:
            site, obj = request.name[0], request.name[1]
            assert seen.setdefault(obj, site) == site

    def test_popularity_is_skewed(self, trace):
        counts = sorted(np.bincount(trace.ids).tolist(), reverse=True)
        top_share = sum(counts[:100]) / trace.n_requests
        assert top_share > 0.05  # head much hotter than uniform (100/30000)

    def test_diurnal_profile_respected(self, trace):
        """Night hours (0-5) must be much quieter than peak (9-11)."""
        ms_per_hour = 3_600_000.0
        night = sum(1 for r in trace if r.time < 6 * ms_per_hour)
        peak = sum(
            1 for r in trace if 9 * ms_per_hour <= r.time < 12 * ms_per_hour
        )
        assert peak > 3 * night

    def test_reproducible(self):
        cfg = IrcacheConfig(requests=500, objects=1000, sites=20, seed=9)
        a = IrcacheGenerator(cfg).generate()
        b = IrcacheGenerator(cfg).generate()
        assert [(r.time, r.user, r.name) for r in a] == [
            (r.time, r.user, r.name) for r in b
        ]


class TestCalibration:
    def test_expected_hit_rate_close_to_realized(self):
        cfg = IrcacheConfig(requests=30_000, objects=50_000, sites=300, seed=3)
        gen = IrcacheGenerator(cfg)
        trace = gen.generate()
        assert trace.max_hit_rate == pytest.approx(
            gen.expected_unlimited_hit_rate(), abs=0.02
        )

    def test_default_config_targets_paper_range(self):
        """Figure 5's y-axis tops out near 50%: the default configuration
        must land an unlimited-cache hit rate in that neighborhood."""
        rate = IrcacheGenerator().expected_unlimited_hit_rate()
        assert 0.40 < rate < 0.55

    def test_small_test_trace_fast_path(self):
        trace = small_test_trace(requests=2000, seed=0)
        assert trace.n_requests == 2000
        assert len(np.unique(trace.users)) <= 25


# ----------------------------------------------------------------------
# The per-block stable sorts: 16-bit keys give the int64 permutation
# ----------------------------------------------------------------------
def _int64_order(keys: np.ndarray, bound: int) -> np.ndarray:
    return np.argsort(keys.astype(np.int64), kind="stable")


def _sorted_by_key(keys: int) -> dict:
    """``_occurrence_index`` over ids in ``0..keys-1`` and two
    ``_SessionState.apply`` blocks over users in ``0..keys-1``; the
    extreme keys interleave at the head, so a key that wraps at 2**16
    lands in the wrong run."""
    rng = np.random.default_rng(keys)
    n = 2 * keys
    head = np.tile([keys - 1, 0], 8)
    ids = np.concatenate([head, rng.integers(0, keys, n)]).astype(np.int32)
    config = IrcacheConfig(
        users=keys, objects=500, sites=20, session_locality=0.5, seed=keys
    )
    state = _SessionState(config, rng.integers(0, config.sites, config.objects))
    blocks = [
        state.apply(
            rng.integers(0, config.objects, len(ids)), ids.astype(np.intp),
            rng.random(len(ids)), rng.random(len(ids)),
        )
        for _ in range(2)
    ]  # fmt: skip
    return {
        "occurrence": _occurrence_index(ids, keys),
        "apply": np.concatenate(blocks),
        "carry": state.current_site,
    }


def narrow_sort_mismatches(keys: int) -> list:
    """Which results of :func:`_sorted_by_key` differ from the same run
    with every key sorted as int64."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compiled, "_stable_order", _int64_order)
        patch.setattr(ircache, "_stable_order", _int64_order)
        expected = _sorted_by_key(keys)
    actual = _sorted_by_key(keys)
    return [name for name in expected if not np.array_equal(actual[name], expected[name])]


@pytest.mark.parametrize("keys", [65_535, 65_536, 65_537])
def test_narrow_sort_keys_give_the_int64_permutation(keys):
    assert narrow_sort_mismatches(keys) == []
