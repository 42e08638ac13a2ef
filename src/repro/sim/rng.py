"""Named, seeded random streams.

Every stochastic component in the simulator (link jitter, packet loss,
scheme randomness, workload generation) draws from its own named stream so
that (a) runs are reproducible bit-for-bit from a single root seed and (b)
changing how one component consumes randomness does not perturb any other
component's draws.

Streams are derived from the root seed with ``numpy``'s ``SeedSequence``
spawn-by-key mechanism: the stream name is hashed into entropy that is mixed
with the root seed, so ``registry.stream("link:R-P")`` is stable across runs
and across registries built with the same root seed.

A stream's state depends on (root seed, name) alone, never on when or in
what order it was created, so a stream is built at its first draw: links,
randomized caching strategies and random replacement hold a
:class:`LazyStream` (registry, name) and resolve it when they first draw.
The generator they get is the very object ``registry.stream(name)``
returns, so a stream nothing draws from is never built and every draw is
unchanged.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Hashable, Optional, Union

import numpy as np

from repro.sim.errors import RngError


def _name_to_entropy(name: str) -> int:
    """Map a stream name to a stable 128-bit integer."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "big")


class RngRegistry:
    """Factory and cache for named ``numpy.random.Generator`` streams."""

    def __init__(self, root_seed: int = 0) -> None:
        if not isinstance(root_seed, int):
            raise RngError(f"root seed must be an int, got {type(root_seed).__name__}")
        if root_seed < 0:
            # SeedSequence refuses it too, but only at the first draw.
            raise RngError(f"root seed must be >= 0, got {root_seed}")
        self.root_seed = root_seed
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator object
        (its internal state advances as it is consumed).
        """
        if not name:
            raise RngError("stream name must be non-empty")
        if name not in self._streams:
            seq = np.random.SeedSequence(
                entropy=self.root_seed, spawn_key=(_name_to_entropy(name),)
            )
            self._streams[name] = np.random.Generator(np.random.PCG64(seq))
        return self._streams[name]

    def fork(self, name: str) -> np.random.Generator:
        """Return a *fresh* generator for ``name`` without caching it.

        Useful for Monte-Carlo trials that must each start from the same
        deterministic state.
        """
        if not name:
            raise RngError("stream name must be non-empty")
        seq = np.random.SeedSequence(
            entropy=self.root_seed, spawn_key=(_name_to_entropy(name),)
        )
        return np.random.Generator(np.random.PCG64(seq))

    @property
    def stream_names(self) -> list[str]:
        """Names of all streams created so far (sorted)."""
        return sorted(self._streams)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"RngRegistry(root_seed={self.root_seed}, streams={len(self._streams)})"


class LazyStream:
    """A handle on the stream ``name`` of ``registry``, built at first draw.

    :meth:`resolve` returns ``registry.stream(name)`` and keeps it, so the
    holder draws from the same object as every other caller of that name.
    A holder resolves once, at its first draw, and then calls the
    generator directly.
    """

    __slots__ = ("registry", "name", "_generator")

    def __init__(self, registry: RngRegistry, name: str) -> None:
        if not name:
            raise RngError("stream name must be non-empty")
        self.registry = registry
        self.name = name
        self._generator: Optional[np.random.Generator] = None

    def resolve(self) -> np.random.Generator:
        """The stream's generator, built now if nothing built it yet."""
        generator = self._generator
        if generator is None:
            generator = self._generator = self.registry.stream(self.name)
        return generator

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "resolved" if self._generator is not None else "lazy"
        return f"LazyStream({self.name!r}, {state})"


#: What a holder is given: a generator, or a handle on a named one.
Stream = Union[np.random.Generator, LazyStream]


def as_generator(stream: Stream) -> np.random.Generator:
    """The generator behind ``stream``, resolving a handle."""
    return stream.resolve() if isinstance(stream, LazyStream) else stream


def stream_key(stream: Stream) -> Hashable:
    """Equal for two streams exactly when they draw from one generator.

    A generator, a resolved handle, or a handle whose name the registry
    already holds keys by the generator's identity; any other handle by
    ``(registry, name)`` — the generator it would resolve to.  Nothing is
    built to compute a key.
    """
    if not isinstance(stream, LazyStream):
        return id(stream)
    generator = stream._generator
    if generator is None:
        generator = stream.registry._streams.get(stream.name)
    if generator is None:
        return (stream.registry, stream.name)
    return id(generator)
