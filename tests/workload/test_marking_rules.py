"""Unit tests for trace privacy-marking rules."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ndn.name import Name
from repro.workload.marking import ContentMarking, NoMarking, RequestMarking


def names(count):
    return [Name.parse(f"/s{i % 50}/o{i}") for i in range(count)]


class TestContentMarking:
    def test_stable_per_content(self):
        rule = ContentMarking(0.3)
        name = Name.parse("/s1/o1")
        decisions = {rule.is_private(name, i) for i in range(10)}
        assert len(decisions) == 1  # same answer for every request

    def test_fraction_approximated(self):
        rule = ContentMarking(0.2)
        marked = sum(rule.is_private(n, 0) for n in names(5000))
        assert marked / 5000 == pytest.approx(0.2, abs=0.03)

    def test_extremes(self):
        assert not ContentMarking(0.0).is_private(Name.parse("/a"), 0)
        assert ContentMarking(1.0).is_private(Name.parse("/a"), 0)

    def test_salt_changes_division(self):
        a = ContentMarking(0.5, salt=1)
        b = ContentMarking(0.5, salt=2)
        differing = sum(
            a.is_private(n, 0) != b.is_private(n, 0) for n in names(500)
        )
        assert differing > 100

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            ContentMarking(1.5)
        with pytest.raises(ValueError):
            ContentMarking(-0.1)

    @settings(max_examples=60, deadline=None)
    @given(
        salt=st.integers(),
        fraction=st.floats(
            min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True
        ),
        uris=st.lists(st.text(max_size=40), max_size=300),
    )
    def test_coin_column_is_the_scalar_coin_bit_for_bit(self, salt, fraction, uris):
        """``coins`` converts its digests in bulk (big-endian uint64 ->
        float64 -> / 2**64): every value must be the Python-int division
        ``coin`` makes, so ``coins < fraction`` is ``is_private_uri``."""
        rule = ContentMarking(fraction, salt=salt)
        column = rule.coins(iter(uris))
        assert column.dtype == np.float64 and column.shape == (len(uris),)
        assert column.tolist() == [rule.coin(uri) for uri in uris]
        assert (column < fraction).tolist() == [rule.is_private_uri(u) for u in uris]


class TestRequestMarking:
    def test_fraction_approximated(self):
        rule = RequestMarking(0.4, seed=0)
        name = Name.parse("/a")
        marked = sum(rule.is_private(name, i) for i in range(5000))
        assert marked / 5000 == pytest.approx(0.4, abs=0.03)

    def test_same_content_varies_across_requests(self):
        rule = RequestMarking(0.5, seed=0)
        name = Name.parse("/a")
        decisions = {rule.is_private(name, i) for i in range(50)}
        assert decisions == {True, False}

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            RequestMarking(2.0)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        fraction=st.floats(min_value=0.0, max_value=1.0),
        blocks=st.lists(st.integers(min_value=0, max_value=300), max_size=5),
    )
    def test_block_draw_is_the_scalar_draws_in_order(self, seed, fraction, blocks):
        one_by_one = RequestMarking(fraction, seed=seed)
        in_blocks = RequestMarking(fraction, seed=seed)
        for count in blocks:
            expected = [one_by_one.is_private(None, 0) for _ in range(count)]
            assert in_blocks.draw(count).tolist() == expected
        assert (
            in_blocks._rng.bit_generator.state == one_by_one._rng.bit_generator.state
        )


class TestNoMarking:
    def test_nothing_private(self):
        rule = NoMarking()
        assert not any(rule.is_private(n, 0) for n in names(100))
