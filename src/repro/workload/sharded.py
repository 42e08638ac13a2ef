"""Compiled traces whose shards live in files: the format at scale.

:func:`compile_stream` lowers any :class:`~repro.workload.streaming.Workload`
to fixed-size shards of a :class:`~repro.workload.compiled.CompiledTrace`'s
columns — ids, times, users, the occurrence index (computed in the same
single streaming pass) and first-occurrence flags — and writes them as
``.npy`` files under one directory, next to the name table
(``names.tsv``, one URI per content id, in first-appearance order) and a
JSON manifest listing the shards with a sha256 per file.
:class:`ShardedCompiledTrace` is the ``CompiledTrace`` over such a
directory; everything in this module is about the files.

The contract with the in-RAM compiler is **bit-equality**: concatenating
a trace's shards reproduces ``compile_trace(trace)``'s columns exactly —
same dtypes, same first-appearance intern order, same occurrence index
(asserted by the property suite in ``tests/workload/test_sharded.py``).
That is what lets ``stream → shards → replay`` equal
``generate → compile → replay`` on every observable.

Readers open shards with ``numpy.load(mmap_mode="r")`` and release each
one (``madvise(MADV_DONTNEED)``) after consuming it, so peak RSS of a
full replay is bounded by one shard plus O(n_names) replay state —
independent of trace length.

Nothing read from disk is trusted.  No digest covers the manifest, so
:meth:`ShardedCompiledTrace.open` checks its shape and that its shards
tile ``0..n_requests`` in order; every shard load checks its length and
that its content ids index the name table; :meth:`~ShardedCompiledTrace.verify`
re-hashes every file and counts the name table.  Each failure is a
:class:`ShardIntegrityError`, which the sweep-runner trace cache turns
into regenerate-on-mismatch.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ndn.name import Name
from repro.workload.compiled import (
    COLUMNS,
    CompiledTrace,
    TraceShard,
    _occurrence_index,
)
from repro.workload.streaming import Workload

FORMAT_NAME = "repro-sharded-trace"
FORMAT_VERSION = 1
MANIFEST_FILE = "manifest.json"
NAMES_FILE = "names.tsv"

#: Requests per shard (the unit of worker/replay residency).
DEFAULT_SHARD_SIZE = 262_144

#: (file suffix, dtype) per column, in :data:`~repro.workload.compiled.COLUMNS`
#: order.
_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("ids", "int32"),
    ("times", "float64"),
    ("users", "int32"),
    ("occurrence", "int32"),
    ("first", "bool"),
)


class ShardIntegrityError(Exception):
    """A shard file is missing or fails its manifest checksum."""


def file_sha256(path: Path) -> str:
    """Hex SHA-256 of a file, read in 1 MiB blocks (bounded memory)."""
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _shard_file(index: int, field: str) -> str:
    return f"shard-{index:05d}.{field}.npy"


class _ShardWriter:
    """Accumulates request columns and flushes fixed-size shards."""

    def __init__(self, out_dir: Path, shard_size: int) -> None:
        self.out_dir = out_dir
        self.shard_size = shard_size
        self.buffers: Dict[str, List[np.ndarray]] = {f: [] for f, _ in _FIELDS}
        self.buffered = 0
        self.written = 0
        self.shards: List[dict] = []

    def push(self, columns: Dict[str, np.ndarray]) -> None:
        n = len(columns["ids"])
        if n == 0:
            return
        for field, _ in _FIELDS:
            self.buffers[field].append(columns[field])
        self.buffered += n
        while self.buffered >= self.shard_size:
            self._flush(self.shard_size)

    def _take(self, count: int) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for field, dtype in _FIELDS:
            parts: List[np.ndarray] = []
            need = count
            buf = self.buffers[field]
            while need > 0:
                head = buf[0]
                if len(head) <= need:
                    parts.append(head)
                    need -= len(head)
                    buf.pop(0)
                else:
                    parts.append(head[:need])
                    buf[0] = head[need:]
                    need = 0
            out[field] = (
                np.concatenate(parts) if len(parts) > 1 else parts[0]
            ).astype(dtype, copy=False)
        return out

    def _flush(self, count: int) -> None:
        index = len(self.shards)
        columns = self._take(count)
        checksums: Dict[str, str] = {}
        for field, _ in _FIELDS:
            path = self.out_dir / _shard_file(index, field)
            np.save(path, columns[field])
            checksums[field] = file_sha256(path)
        self.shards.append(
            {"index": index, "start": self.written, "count": count,
             "checksums": checksums}
        )
        self.written += count
        self.buffered -= count

    def finish(self) -> None:
        if self.buffered:
            self._flush(self.buffered)


def compile_stream(
    workload: Workload,
    out_dir: Union[str, Path],
    shard_size: int = DEFAULT_SHARD_SIZE,
    chunk_size: Optional[int] = None,
    source: Optional[dict] = None,
) -> "ShardedCompiledTrace":
    """Compile a workload to the sharded on-disk format in one pass.

    Interns names to dense int32 content ids in first-appearance order
    (bit-equal to :func:`~repro.workload.compiled.compile_trace` on the
    same request sequence, for any ``shard_size``/``chunk_size``), writes
    the occurrence index alongside, and returns the opened
    :class:`ShardedCompiledTrace`.  ``source`` is an arbitrary JSON-able
    provenance dict stored in the manifest (the sweep cache puts the
    generator fingerprint here).
    """
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    key_space = workload.key_space
    if key_space is not None:
        key_to_cid: Optional[np.ndarray] = np.full(key_space, -1, dtype=np.int64)
        cid_map: Optional[Dict[int, int]] = None
    else:
        key_to_cid = None
        cid_map = {}

    writer = _ShardWriter(out, shard_size)
    n_names = 0
    # Per-cid running request counts (occurrence index source), grown in
    # amortized-doubling steps as the vocabulary is discovered.
    occ_counts = np.zeros(max(1024, int(workload.n_names) or 1024), dtype=np.int64)

    with (out / NAMES_FILE).open("w", encoding="utf-8") as names_out:
        for block in workload.iter_blocks(chunk_size):
            keys = block.keys
            if key_to_cid is not None:
                cids = key_to_cid[keys]
            else:
                assert cid_map is not None
                cids = np.fromiter(
                    (cid_map.get(k, -1) for k in keys.tolist()),
                    dtype=np.int64,
                    count=len(keys),
                )
            missing = cids < 0
            if missing.any():
                uniq, first_idx = np.unique(
                    keys[missing], return_index=True
                )
                appearance = np.argsort(first_idx, kind="stable")
                new_keys = uniq[appearance]
                for key in new_keys.tolist():
                    names_out.write(workload.uri_of(key) + "\n")
                fresh = np.arange(
                    n_names, n_names + len(new_keys), dtype=np.int64
                )
                if key_to_cid is not None:
                    key_to_cid[new_keys] = fresh
                    cids = key_to_cid[keys]
                else:
                    assert cid_map is not None
                    cid_map.update(zip(new_keys.tolist(), fresh.tolist()))
                    cids = np.fromiter(
                        (cid_map[k] for k in keys.tolist()),
                        dtype=np.int64,
                        count=len(keys),
                    )
                n_names += len(new_keys)
            if n_names > len(occ_counts):
                grown = np.zeros(
                    max(n_names, 2 * len(occ_counts)), dtype=np.int64
                )
                grown[: len(occ_counts)] = occ_counts
                occ_counts = grown
            cids32 = cids.astype(np.int32)
            within = _occurrence_index(cids32, n_names).astype(np.int64)
            occurrence = within + occ_counts[cids]
            first = occurrence == 0
            np.add.at(occ_counts, cids, 1)
            writer.push(
                {
                    "ids": cids32,
                    "times": np.asarray(block.times, dtype=np.float64),
                    "users": block.users.astype(np.int32),
                    "occurrence": occurrence.astype(np.int32),
                    "first": first,
                }
            )
    writer.finish()

    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "n_requests": writer.written,
        "n_names": n_names,
        "shard_size": shard_size,
        "fields": {field: dtype for field, dtype in _FIELDS},
        "names_file": NAMES_FILE,
        "names_sha256": file_sha256(out / NAMES_FILE),
        "shards": writer.shards,
        "source": source if source is not None else {},
    }
    with (out / MANIFEST_FILE).open("w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1)
        handle.write("\n")
    return ShardedCompiledTrace.open(out)


class LazyNameTable(Sequence[Name]):
    """``names[content_id]`` over the on-disk intern table, loaded lazily.

    ``len()`` and iteration stream the TSV without materializing (what
    the replay kernels use); random access loads the URI list once and
    keeps it (what generic marking rules need).  Name objects are built
    outside the global intern pool, so walking a million-name table does
    not grow process-wide state.
    """

    def __init__(self, path: Path, count: int) -> None:
        self.path = path
        self._count = count
        self._uris: Optional[List[str]] = None

    def __len__(self) -> int:
        return self._count

    def iter_uris(self) -> Iterator[str]:
        """The table's lines; raises at the end unless it read ``len(self)``."""
        found = 0
        with self.path.open("r", encoding="utf-8") as handle:
            for found, line in enumerate(handle, start=1):
                yield line.rstrip("\n")
        if found != self._count:
            raise ShardIntegrityError(
                f"{self.path}: expected {self._count} names, found {found}"
            )

    def __iter__(self) -> Iterator[Name]:
        for uri in self.iter_uris():
            yield Name(tuple(uri.split("/")[1:]) if uri != "/" else ())

    def _load(self) -> List[str]:
        if self._uris is None:
            self._uris = list(self.iter_uris())
        return self._uris

    def __getitem__(self, index):  # type: ignore[override]
        uri = self._load()[index]
        if isinstance(index, slice):
            return [
                Name(tuple(u.split("/")[1:]) if u != "/" else ()) for u in uri
            ]
        return Name(tuple(uri.split("/")[1:]) if uri != "/" else ())


def _is_count(value: object) -> bool:
    return type(value) is int and value >= 0


def _manifest_problem(manifest: object) -> Optional[str]:
    """What is wrong with a parsed manifest, or None.

    No digest covers the manifest itself, so everything a reader indexes
    by is checked for type and self-consistency before it is trusted.
    """
    if not isinstance(manifest, dict):
        return "is not an object"
    if manifest.get("format") != FORMAT_NAME:
        return f"has unexpected format {manifest.get('format')!r}"
    if manifest.get("version") != FORMAT_VERSION:
        return f"has unsupported version {manifest.get('version')!r}"
    shards = manifest.get("shards")
    if not (
        _is_count(manifest.get("n_requests"))
        and _is_count(manifest.get("n_names"))
        and isinstance(manifest.get("names_file", NAMES_FILE), str)
        and isinstance(shards, list)
    ):
        return "lacks a well-typed n_requests, n_names, names_file or shards"
    start = 0
    for index, meta in enumerate(shards):
        if not (
            isinstance(meta, dict)
            and meta.get("index") == index
            and meta.get("start") == start
            and _is_count(meta.get("count"))
            and isinstance(meta.get("checksums"), dict)
            and all(field in meta["checksums"] for field, _ in _FIELDS)
        ):
            return f"shard entry {index} is malformed or out of sequence"
        start += meta["count"]
    if start != manifest["n_requests"]:
        return f"shards hold {start} requests, not {manifest['n_requests']}"
    return None


class ShardedCompiledTrace(CompiledTrace):
    """A :class:`~repro.workload.compiled.CompiledTrace` whose shards are
    memory-mapped from a directory, one at a time, instead of held in RAM."""

    def __init__(self, path: Path, manifest: dict) -> None:
        super().__init__(
            LazyNameTable(
                path / manifest.get("names_file", NAMES_FILE), manifest["n_names"]
            )
        )
        self.path = path
        self.manifest = manifest

    # ------------------------------------------------------------------
    # Open / verify
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path: Union[str, Path]) -> "ShardedCompiledTrace":
        """Open a shard directory, checking the manifest's shape and
        self-consistency (call :meth:`verify` for the file checksums)."""
        root = Path(path)
        manifest_path = root / MANIFEST_FILE
        if not manifest_path.is_file():
            raise ShardIntegrityError(f"{root}: no {MANIFEST_FILE}")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            raise ShardIntegrityError(f"{manifest_path}: {error}") from error
        problem = _manifest_problem(manifest)
        if problem is not None:
            raise ShardIntegrityError(f"{root}: manifest {problem}")
        return cls(root, manifest)

    def verify(self) -> None:
        """Check every shard file and the name table against the manifest.

        Raises :class:`ShardIntegrityError` on any missing file, checksum
        mismatch or name-count mismatch (the trace cache regenerates on
        this).
        """
        names_path = self.names.path
        if not names_path.is_file():
            raise ShardIntegrityError(f"{names_path}: missing name table")
        if file_sha256(names_path) != self.manifest.get("names_sha256"):
            raise ShardIntegrityError(f"{names_path}: checksum mismatch")
        with names_path.open("r", encoding="utf-8") as handle:
            found = sum(1 for _ in handle)
        if found != self.n_names:
            raise ShardIntegrityError(
                f"{names_path}: expected {self.n_names} names, found {found}"
            )
        for index in range(self.n_shards):
            for field, _ in _FIELDS:
                self._shard_path(index, field, verify=True)

    # ------------------------------------------------------------------
    # Shard access
    # ------------------------------------------------------------------
    @property
    def n_requests(self) -> int:
        return self.manifest["n_requests"]

    @property
    def n_shards(self) -> int:
        return len(self.manifest["shards"])

    def iter_uris(self) -> Iterator[str]:
        return self.names.iter_uris()

    def _shard_path(self, index: int, field: str, verify: bool) -> Path:
        path = self.path / _shard_file(index, field)
        if not path.is_file():
            raise ShardIntegrityError(f"{path}: missing shard file")
        expected = self.manifest["shards"][index]["checksums"][field]
        if verify and file_sha256(path) != expected:
            raise ShardIntegrityError(f"{path}: checksum mismatch")
        return path

    def load_shard(self, index: int, verify: bool = False) -> TraceShard:
        """Memory-map one shard (optionally checksum-verified first)."""
        meta = self.manifest["shards"][index]
        arrays = {
            field: np.load(self._shard_path(index, field, verify), mmap_mode="r")
            for field, _ in _FIELDS
        }
        ids = arrays["ids"]
        if len(ids) != meta["count"]:
            raise ShardIntegrityError(
                f"{self.path}: shard {index} has {len(ids)} "
                f"requests, manifest says {meta['count']}"
            )
        if len(ids) and not (0 <= ids.min() and ids.max() < self.n_names):
            raise ShardIntegrityError(
                f"{self.path}: shard {index} has content ids outside "
                f"0..{self.n_names - 1}"
            )
        # _FIELDS lists the files in TraceShard's column order.
        return TraceShard(index, meta["start"], *arrays.values())

    def iter_shards(self) -> Iterator[TraceShard]:
        """Yield shards in order, releasing each one's pages afterwards."""
        for index in range(self.n_shards):
            shard = self.load_shard(index)
            try:
                yield shard
            finally:
                shard.release()

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def materialize(self) -> CompiledTrace:
        """Copy the whole trace into RAM as a one-shard
        :class:`CompiledTrace`.

        For differential tests and small traces — defeats the point at
        scale.
        """
        whole = self._whole()
        columns = (np.array(getattr(whole, column)) for column, _ in COLUMNS)
        return CompiledTrace(tuple(self.names), [TraceShard(0, 0, *columns)])
