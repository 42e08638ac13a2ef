"""Unit tests for Interest and Data packets."""

from __future__ import annotations

import dataclasses

import pytest

from repro.ndn.errors import PacketError
from repro.ndn.name import Name
from repro.ndn.packets import NACK_NO_ROUTE, Data, Interest, Nack


def hop_copy_mismatches():
    """``[(packet type, field)]`` that ``Interest.hop()``/``Nack.hop()``
    got wrong: each copy must equal its original built afresh by
    ``dataclasses.replace`` with one more hop (name, nonce, scope,
    private, lifetime and reason kept)."""
    originals = (
        Interest(Name.parse("/a/b"), nonce=7, scope=5, private=True,
                 lifetime=250.0, hops=3),
        Nack(Name.parse("/a/b"), nonce=7, reason=NACK_NO_ROUTE, hops=3),
    )
    bad = []
    for packet in originals:
        hopped = packet.hop()
        expected = dataclasses.replace(packet, hops=packet.hops + 1)
        for field in dataclasses.fields(packet):
            if getattr(hopped, field.name) != getattr(expected, field.name):
                bad.append((type(packet).__name__, field.name))
    return bad


def test_hop_copies_keep_every_field_but_hops():
    assert hop_copy_mismatches() == []


class TestInterest:
    def test_defaults(self):
        interest = Interest(name=Name.parse("/a"))
        assert interest.scope is None
        assert not interest.private
        assert interest.hops == 1
        assert interest.lifetime == 4000.0

    def test_nonces_are_unique(self):
        a = Interest(name=Name.parse("/a"))
        b = Interest(name=Name.parse("/a"))
        assert a.nonce != b.nonce

    def test_hop_increments_and_preserves_nonce(self):
        interest = Interest(name=Name.parse("/a"))
        hopped = interest.hop()
        assert hopped.hops == 2
        assert hopped.nonce == interest.nonce
        assert hopped.name == interest.name

    def test_invalid_scope_rejected(self):
        with pytest.raises(PacketError):
            Interest(name=Name.parse("/a"), scope=0)

    def test_invalid_lifetime_rejected(self):
        with pytest.raises(PacketError):
            Interest(name=Name.parse("/a"), lifetime=0.0)

    @pytest.mark.parametrize("lifetime", [float("nan"), float("inf")])
    def test_non_finite_lifetime_rejected_when_built(self, lifetime):
        # Not at encode time (OverflowError / ValueError from ``int()``).
        with pytest.raises(PacketError):
            Interest(name=Name.parse("/a"), lifetime=lifetime)

    def test_invalid_hops_rejected(self):
        with pytest.raises(PacketError):
            Interest(name=Name.parse("/a"), hops=0)

    def test_str_shows_markers(self):
        interest = Interest(name=Name.parse("/a"), scope=2, private=True)
        text = str(interest)
        assert "scope=2" in text and "private" in text


class TestScopeSemantics:
    """scope = max NDN entities traversed, source included (Section III)."""

    def test_unlimited_scope_never_exhausts(self):
        interest = Interest(name=Name.parse("/a"))
        assert not interest.scope_exhausted

    def test_scope2_exhausted_at_first_hop_router(self):
        # Source is entity 1 (hops=1); the receiving router is entity 2 and
        # must not forward further.
        interest = Interest(name=Name.parse("/a"), scope=2)
        assert interest.scope_exhausted

    def test_scope3_allows_one_forward(self):
        interest = Interest(name=Name.parse("/a"), scope=3)
        assert not interest.scope_exhausted  # first router may forward
        assert interest.hop().scope_exhausted  # second router may not


class TestData:
    def test_defaults(self):
        data = Data(name=Name.parse("/a"))
        assert not data.private
        assert data.size == 1024
        assert data.freshness is None
        assert not data.exact_match_only

    def test_satisfies_prefix_rule(self):
        data = Data(name=Name.parse("/cnn/news/today"))
        assert data.satisfies(Interest(name=Name.parse("/cnn/news")))
        assert data.satisfies(Interest(name=Name.parse("/cnn/news/today")))
        assert not data.satisfies(Interest(name=Name.parse("/bbc")))

    def test_effectively_private_via_bit(self):
        assert Data(name=Name.parse("/a"), private=True).effectively_private

    def test_effectively_private_via_name_component(self):
        assert Data(name=Name.parse("/a/private/x")).effectively_private

    def test_not_private_by_default(self):
        assert not Data(name=Name.parse("/a")).effectively_private

    def test_negative_size_rejected(self):
        with pytest.raises(PacketError):
            Data(name=Name.parse("/a"), size=-1)

    def test_invalid_freshness_rejected(self):
        with pytest.raises(PacketError):
            Data(name=Name.parse("/a"), freshness=0.0)

    @pytest.mark.parametrize("freshness", [float("nan"), float("inf")])
    def test_non_finite_freshness_rejected_when_built(self, freshness):
        with pytest.raises(PacketError):
            Data(name=Name.parse("/a"), freshness=freshness)

    def test_str_shows_private_marker(self):
        assert "[private]" in str(Data(name=Name.parse("/a"), private=True))

    def test_frozen(self):
        data = Data(name=Name.parse("/a"))
        with pytest.raises(Exception):
            data.size = 10  # type: ignore[misc]
