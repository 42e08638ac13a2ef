"""Property-based tests: the indexed ``Producer`` against a naive model.

The producer keeps an ordered index of its repo's names so a prefix miss
is a bisect, not a scan.  The model below is the lookup rule stated the
slow way — "the smallest published non-exact name this name is a proper
prefix of" by a linear pass over the whole repo — and any interleaving of
publishes and interests must serve the same objects and leave the same
repo.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.ndn.apps.producer import Producer
from repro.ndn.name import Name
from repro.ndn.packets import Interest
from repro.sim.engine import Engine

PREFIX = Name.parse("/p")

#: Names under the producer's prefix, short and over a small alphabet so
#: exact hits, proper prefixes, extensions and unseen names all occur.
own_name = st.lists(st.sampled_from(["a", "b", "c"]), min_size=0, max_size=3).map(
    lambda parts: PREFIX.append(*parts)
)
foreign_name = st.lists(st.sampled_from(["a", "b"]), min_size=0, max_size=2).map(
    lambda parts: Name(("q", *parts))
)
operation = st.one_of(
    st.tuples(st.just("publish"), own_name, st.booleans()),
    st.tuples(st.just("interest"), own_name, st.just(False)),
    st.tuples(st.just("interest"), foreign_name, st.just(False)),
)


class RecordingFace:
    """Collects what the producer serves."""

    def __init__(self) -> None:
        self.served: List[Name] = []

    def send_data(self, data) -> None:
        self.served.append(data.name)


class NaiveProducer:
    """The lookup rule by exhaustive search; repo maps name -> exact flag."""

    def __init__(self, auto_generate: bool) -> None:
        self.auto_generate = auto_generate
        self.repo: Dict[Name, bool] = {}

    def publish(self, name: Name, exact_match_only: bool) -> None:
        self.repo[name] = exact_match_only

    def serve(self, name: Name) -> Optional[Name]:
        if not PREFIX.is_prefix_of(name):
            return None
        if name in self.repo:
            return name
        extensions = [
            published
            for published, exact_only in self.repo.items()
            if name.is_prefix_of(published) and not exact_only
        ]
        if extensions:
            return min(extensions)
        if self.auto_generate:
            self.repo[name] = False
            return name
        return None


@given(st.booleans(), st.lists(operation, max_size=60))
@settings(max_examples=300, deadline=None)
def test_indexed_producer_matches_naive_model(auto_generate, operations):
    producer = Producer(Engine(), prefix=PREFIX, auto_generate=auto_generate)
    model = NaiveProducer(auto_generate)
    face = RecordingFace()
    for kind, name, exact_only in operations:
        if kind == "publish":
            producer.publish(name, exact_match_only=exact_only)
            model.publish(name, exact_only)
        else:
            before = len(face.served)
            producer.receive_interest(Interest(name=name), face)
            expected = model.serve(name)
            assert face.served[before:] == ([] if expected is None else [expected])
        repo: List[Tuple[Name, bool]] = [
            (published, data.exact_match_only)
            for published, data in producer.repo.items()
        ]
        assert repo == list(model.repo.items())
        # One index entry per repo name, whatever the call sequence.
        assert sorted(producer._index) == sorted(n.components for n in producer.repo)
