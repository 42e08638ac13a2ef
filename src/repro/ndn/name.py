"""Hierarchical NDN content names.

A name is an immutable sequence of string components, written
``/cnn/news/2013may20`` in the usual slash-delimited representation
(Section II of the paper).  Component boundaries are explicit; components
themselves are opaque to the network.

Matching semantics follow the paper exactly: content named ``X'`` matches an
interest for ``X`` iff ``X`` is a prefix of ``X'`` (footnote 2), e.g.
``/cnn/news/2013may20`` matches an interest for ``/cnn/news``.

Hot-path design: names are the key of every forwarding table, so the class
keeps three caches that make per-packet work allocation-free after first
touch:

* a **global intern pool** (:meth:`intern`, and :meth:`parse`, which
  interns) mapping component tuples to a canonical instance, so repeated
  parses of the same URI return the *same* object,
* a cached URI (``__str__`` renders once per instance),
* a cached prefix chain (:meth:`prefixes` precomputes the interned prefix
  names on first iteration, so FIB longest-prefix walks allocate nothing).

All caches are invisible to the value semantics: equality, ordering, and
hashing depend only on the component tuple.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Dict, Iterable, Iterator, Tuple, Union

from repro.ndn.errors import NameError_

#: Reserved component marking producer-designated private content
#: (Section V, producer-driven marking).
PRIVATE_COMPONENT = "private"


def uri_components(uri: str) -> Tuple[str, ...]:
    """The component tuple of a slash-delimited URI, the rule of
    :meth:`Name.parse`: ``/`` is the root, any other URI starts with ``/``
    and has no empty component.  Raises :class:`NameError_` otherwise."""
    if uri == "/":
        return ()
    if not uri.startswith("/"):
        raise NameError_(f"name URI must start with '/': {uri!r}")
    parts = tuple(uri[1:].split("/"))
    if "" in parts:
        raise NameError_(f"empty component in name URI: {uri!r}")
    return parts


@total_ordering
class Name:
    """An immutable, hashable hierarchical content name."""

    __slots__ = ("_components", "_hash", "_uri", "_prefix_chain")

    #: Global intern pool: component tuple -> canonical instance.
    _intern_pool: Dict[Tuple[str, ...], "Name"] = {}
    #: Parse memo: URI string -> interned instance.
    _parse_cache: Dict[str, "Name"] = {}

    def __init__(self, components: Iterable[str] = ()) -> None:
        comps = tuple(components)
        for comp in comps:
            if not isinstance(comp, str):
                raise NameError_(
                    f"name components must be str, got {type(comp).__name__}"
                )
            if comp == "":
                raise NameError_("name components must be non-empty")
            if "/" in comp:
                raise NameError_(f"name component may not contain '/': {comp!r}")
        self._components = comps
        self._hash = hash(comps)
        self._uri = None
        self._prefix_chain = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def _from_tuple(cls, comps: Tuple[str, ...]) -> "Name":
        """Trusted fast constructor for an already-validated tuple."""
        self = object.__new__(cls)
        self._components = comps
        self._hash = hash(comps)
        self._uri = None
        self._prefix_chain = None
        return self

    @classmethod
    def _intern_tuple(cls, comps: Tuple[str, ...]) -> "Name":
        """Canonical instance for a validated component tuple."""
        pool = cls._intern_pool
        name = pool.get(comps)
        if name is None:
            name = cls._from_tuple(comps)
            pool[comps] = name
        return name

    @classmethod
    def intern(cls, value: Union["Name", str, Iterable[str]]) -> "Name":
        """The canonical (pooled) instance equal to ``value``.

        Accepts a :class:`Name`, a URI string, or an iterable of
        components; validation matches the constructor.  Interned names
        are regular names — callers never need to distinguish them — but
        repeated interning of equal values returns the same object, so
        identity-keyed caches (and ``dict`` lookups, via the cached hash)
        hit without re-hashing component tuples.
        """
        if isinstance(value, Name):
            return cls._intern_tuple(value._components)
        if isinstance(value, str):
            return cls.parse(value)
        return cls._intern_tuple(cls(value)._components)

    @classmethod
    def parse(cls, uri: str) -> "Name":
        """Parse a slash-delimited name like ``/youtube/alice/video.avi/137``.

        A leading slash is required for non-root names; the bare string
        ``/`` parses to the root (empty) name.  Parsing is memoized: the
        same URI returns the same (interned) instance.
        """
        cached = cls._parse_cache.get(uri)
        if cached is not None:
            return cached
        name = cls._intern_tuple(uri_components(uri))
        cls._parse_cache[uri] = name
        return name

    @classmethod
    def root(cls) -> "Name":
        """The zero-component root name (prefix of everything)."""
        return cls._intern_tuple(())

    @classmethod
    def clear_caches(cls) -> None:
        """Drop the intern pool and parse memo (tests / memory pressure).

        Existing instances stay valid; only canonicalization state is
        reset, so post-clear parses return fresh canonical objects.
        """
        cls._intern_pool.clear()
        cls._parse_cache.clear()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def components(self) -> Tuple[str, ...]:
        """The tuple of components."""
        return self._components

    def __len__(self) -> int:
        return len(self._components)

    def __iter__(self) -> Iterator[str]:
        return iter(self._components)

    def __getitem__(self, index: Union[int, slice]) -> Union[str, "Name"]:
        if isinstance(index, slice):
            return Name._from_tuple(self._components[index])
        return self._components[index]

    @property
    def last(self) -> str:
        """The final component; raises on the root name."""
        if not self._components:
            raise NameError_("root name has no last component")
        return self._components[-1]

    # ------------------------------------------------------------------
    # Hierarchy operations
    # ------------------------------------------------------------------
    def append(self, *components: str) -> "Name":
        """Return a new name with ``components`` appended."""
        return Name(self._components + tuple(components))

    def parent(self) -> "Name":
        """Return the name with the last component removed."""
        if not self._components:
            raise NameError_("root name has no parent")
        return Name._from_tuple(self._components[:-1])

    def prefix(self, length: int) -> "Name":
        """Return the first ``length`` components as a name."""
        if length < 0 or length > len(self._components):
            raise NameError_(
                f"prefix length {length} out of range for {self}"
            )
        return Name._from_tuple(self._components[:length])

    def prefixes(self) -> Iterator["Name"]:
        """Yield every prefix of this name, longest first (self included).

        The chain of interned prefix names is computed once per instance;
        subsequent iterations allocate nothing.
        """
        chain = self._prefix_chain
        if chain is None:
            comps = self._components
            intern = Name._intern_tuple
            chain = tuple(
                intern(comps[:length])
                for length in range(len(comps), -1, -1)
            )
            self._prefix_chain = chain
        return iter(chain)

    def is_prefix_of(self, other: "Name") -> bool:
        """True iff every component of self matches the start of ``other``.

        This is the paper's content-matching rule: an interest for this name
        is satisfied by content named ``other``.  A name is a prefix of
        itself.
        """
        if len(self._components) > len(other._components):
            return False
        return other._components[: len(self._components)] == self._components

    def matches(self, content_name: "Name") -> bool:
        """Alias for :meth:`is_prefix_of` reading as interest→content match."""
        return self.is_prefix_of(content_name)

    def has_component(self, component: str) -> bool:
        """True if any component equals ``component``."""
        return component in self._components

    @property
    def marked_private(self) -> bool:
        """True if the reserved ``private`` component appears in the name.

        This implements the paper's producer-driven name-based marking: a
        producer appends ``/private/`` (here, as any component) to flag the
        content as privacy-sensitive.
        """
        return PRIVATE_COMPONENT in self._components

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, Name):
            return NotImplemented
        return self._components == other._components

    def __lt__(self, other: "Name") -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return self._components < other._components

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Pickle by component tuple only: the lazy URI/prefix caches are
        # per-process state and must not leak into (or be required from)
        # serialized form — checkpoint files stay version-stable.
        return (Name, (self._components,))

    def __str__(self) -> str:
        uri = self._uri
        if uri is None:
            if self._components:
                uri = "/" + "/".join(self._components)
            else:
                uri = "/"
            self._uri = uri
        return uri

    def __repr__(self) -> str:
        return f"Name({str(self)!r})"


def name_of(value: Union[str, Name]) -> Name:
    """Coerce a string URI or a Name into a Name (convenience for APIs)."""
    if isinstance(value, Name):
        return value
    if isinstance(value, str):
        return Name.parse(value)
    raise NameError_(f"cannot convert {type(value).__name__} to Name")
