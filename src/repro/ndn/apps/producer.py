"""Producer application: publishes and serves named content.

A producer owns a name prefix, keeps a repository of published objects, and
answers interests under its prefix.  ``auto_generate`` synthesizes content
for any requested name under the prefix — convenient for attack experiments
that probe names nobody pre-published (every probe then sees a well-defined
miss path instead of a timeout).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Optional, Tuple, Union

from repro.ndn.link import Face
from repro.ndn.name import Name, name_of
from repro.ndn.packets import Data, Interest, Nack
from repro.sim.engine import Engine
from repro.sim.monitor import Monitor


class Producer:
    """An end host serving content under one prefix.

    Lookup rule for an interest under the prefix, in order: the object
    published (or earlier synthesized) under exactly that name; else the
    *smallest* published name the interest name is a proper prefix of,
    skipping objects published ``exact_match_only``; else, with
    ``auto_generate``, a new object synthesized under the interest name
    and kept in the repo; else nothing.

    Cost: the exact hit is one dict lookup.  The repo's names are also
    kept as an ordered index of component tuples, in which the extensions
    of a name are contiguous, so a prefix miss is one ``bisect`` —
    O(log n) comparisons — plus a scan over only those extensions, and a
    synthesized name is inserted in place.  ``publish`` appends to the
    index in O(1); the next prefix miss after a run of publishes re-sorts
    it once.
    """

    def __init__(
        self,
        engine: Engine,
        prefix: Union[str, Name],
        producer_id: str = "",
        private: bool = False,
        auto_generate: bool = True,
        content_size: int = 1024,
        processing_delay: float = 0.0,
        monitor: Optional[Monitor] = None,
    ) -> None:
        self.engine = engine
        self.prefix = name_of(prefix)
        self.producer_id = producer_id or str(self.prefix)
        self.private_by_default = private
        self.auto_generate = auto_generate
        self.content_size = content_size
        self.processing_delay = processing_delay
        self.monitor = monitor if monitor is not None else Monitor()
        self.face: Optional[Face] = None
        self.repo: Dict[Name, Data] = {}
        # The component tuples of exactly the repo's names; sorted unless
        # a publish has appended since the last prefix miss.
        self._index: List[Tuple[str, ...]] = []
        self._index_sorted = True

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def create_face(self, label: str = "") -> Face:
        """Create the producer's (single) downstream face."""
        face = Face(self, label=label or f"{self.producer_id}:face")
        self.face = face
        return face

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(
        self,
        name: Union[str, Name],
        private: Optional[bool] = None,
        size: Optional[int] = None,
        exact_match_only: bool = False,
    ) -> Data:
        """Create and store a content object under the producer's prefix."""
        full = name_of(name)
        if not self.prefix.is_prefix_of(full):
            raise ValueError(
                f"{full} is outside producer prefix {self.prefix}"
            )
        data = Data(
            name=full,
            producer=self.producer_id,
            private=self.private_by_default if private is None else private,
            size=self.content_size if size is None else size,
            exact_match_only=exact_match_only,
        )
        if full not in self.repo:
            self._index.append(full.components)
            self._index_sorted = False
        self.repo[full] = data
        return data

    def publish_many(self, count: int, stem: str = "object", **kwargs) -> list:
        """Publish ``count`` objects named ``<prefix>/<stem>-<i>``."""
        return [
            self.publish(self.prefix.append(f"{stem}-{i}"), **kwargs)
            for i in range(count)
        ]

    # ------------------------------------------------------------------
    # PacketHandler interface
    # ------------------------------------------------------------------
    def receive_interest(self, interest: Interest, face: Face) -> None:
        """Serve matching repo content (or synthesize it, if configured)."""
        self.monitor.count("interest_in")
        if not self.prefix.is_prefix_of(interest.name):
            self.monitor.count("foreign_interest")
            return
        data = self._resolve(interest.name)
        if data is None:
            self.monitor.count("nonexistent_content")
            return
        self.monitor.count("data_served")
        if self.processing_delay > 0:
            self.engine.schedule_fire_and_forget(
                self.processing_delay, face.send_data, data
            )
        else:
            face.send_data(data)

    def smallest_extension(self, name: Name) -> Optional[Data]:
        """The object under the smallest published name that ``name`` is
        a proper prefix of, ``exact_match_only`` objects skipped."""
        index = self._index
        if not self._index_sorted:
            index.sort()
            self._index_sorted = True
        comps = name.components
        depth = len(comps)
        # Extensions of ``comps`` sort directly after it, contiguously.
        for pos in range(bisect_left(index, comps), len(index)):
            published = index[pos]
            if published[:depth] != comps:
                break
            if len(published) > depth:
                data = self.repo[Name(published)]
                if not data.exact_match_only:
                    return data
        return None

    def _resolve(self, name: Name) -> Optional[Data]:
        data = self.repo.get(name)
        if data is not None:
            return data
        data = self.smallest_extension(name)
        if data is None and self.auto_generate:
            data = Data(
                name=name,
                producer=self.producer_id,
                private=self.private_by_default,
                size=self.content_size,
            )
            self.repo[name] = data
            insort(self._index, name.components)
        return data

    def receive_data(self, data: Data, face: Face) -> None:
        """Producers do not consume content."""
        self.monitor.count("unexpected_data")

    def receive_nack(self, nack: Nack, face: Face) -> None:
        """Producers send no interests, so a Nack is only tallied."""
        self.monitor.count("unexpected_nack")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Producer({self.prefix}, repo={len(self.repo)})"
