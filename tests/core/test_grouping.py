"""Unit tests for content-grouping functions."""

from __future__ import annotations

import pytest

from repro.core.schemes.grouping import (
    CONTENT_ID_PREFIX,
    ContentIdGrouping,
    NamespaceGrouping,
    NoGrouping,
)
from repro.ndn.name import Name


class TestNoGrouping:
    def test_each_name_is_own_group(self):
        g = NoGrouping()
        a, b = Name.parse("/x/1"), Name.parse("/x/2")
        assert g.group_of(a) == a
        assert g.group_of(a) != g.group_of(b)


class TestNamespaceGrouping:
    def test_fragments_share_group(self):
        g = NamespaceGrouping(depth=3)
        frag1 = Name.parse("/youtube/alice/video-749.avi/137")
        frag2 = Name.parse("/youtube/alice/video-749.avi/138")
        assert g.group_of(frag1) == g.group_of(frag2)
        assert g.group_of(frag1) == Name.parse("/youtube/alice/video-749.avi")

    def test_different_namespaces_different_groups(self):
        g = NamespaceGrouping(depth=2)
        assert g.group_of(Name.parse("/site-a/x/1")) != g.group_of(
            Name.parse("/site-b/x/1")
        )

    def test_short_names_group_as_themselves(self):
        g = NamespaceGrouping(depth=3)
        short = Name.parse("/a/b")
        assert g.group_of(short) == short

    def test_name_exactly_at_depth(self):
        g = NamespaceGrouping(depth=2)
        name = Name.parse("/a/b")
        assert g.group_of(name) == name

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            NamespaceGrouping(depth=0)


class TestContentIdGrouping:
    def test_names_with_same_cid_share_group(self):
        g = ContentIdGrouping()
        a = Name.parse(f"/site-a/page1/{CONTENT_ID_PREFIX}story42")
        b = Name.parse(f"/site-b/page9/{CONTENT_ID_PREFIX}story42")
        assert g.group_of(a) == g.group_of(b) == f"{CONTENT_ID_PREFIX}story42"

    def test_different_cids_differ(self):
        g = ContentIdGrouping()
        a = Name.parse(f"/x/{CONTENT_ID_PREFIX}1")
        b = Name.parse(f"/x/{CONTENT_ID_PREFIX}2")
        assert g.group_of(a) != g.group_of(b)

    def test_fallback_to_per_object(self):
        g = ContentIdGrouping()
        plain = Name.parse("/no/cid/here")
        assert g.group_of(plain) == plain

    def test_first_cid_component_wins(self):
        g = ContentIdGrouping()
        name = Name.parse(f"/x/{CONTENT_ID_PREFIX}a/{CONTENT_ID_PREFIX}b")
        assert g.group_of(name) == f"{CONTENT_ID_PREFIX}a"


class TestGroupingUtility:
    def test_site_groups_recover_private_hits_on_a_session_workload(self):
        """On a browsing-session workload (users stay on a site for runs of
        requests) the group counter crosses its threshold with the site's
        aggregate popularity, so grouped Exponential-Random-Cache recovers
        more private hits than per-object at the same domain size."""
        from repro.core.schemes.exponential import ExponentialRandomCache
        from repro.workload.fast_replay import fast_replay
        from repro.workload.ircache import IrcacheConfig, IrcacheGenerator
        from repro.workload.marking import ContentMarking

        trace = IrcacheGenerator(IrcacheConfig(
            requests=60_000, objects=80_000, sites=1_000,
            session_locality=0.6, seed=31,
        )).generate()
        per_object, per_site = (
            fast_replay(
                trace,
                scheme=ExponentialRandomCache(alpha=0.995, K=2000, grouping=grouping),
                marking=ContentMarking(0.4),
                cache_size=8000,
            )
            for grouping in (None, NamespaceGrouping(depth=1))
        )
        assert per_site.private_hit_rate > per_object.private_hit_rate
        assert per_site.hit_rate >= per_object.hit_rate
