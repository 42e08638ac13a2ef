"""Compiled traces whose shards live in files: the format at scale.

:func:`compile_stream` lowers any :class:`~repro.workload.streaming.Workload`
to fixed-size shards of a :class:`~repro.workload.compiled.CompiledTrace`'s
columns — ids, times, users, the occurrence index (computed in the same
single streaming pass) and first-occurrence flags — and writes them as
``.npy`` files under one directory, next to the name table
(``names.tsv``, one URI per content id, in first-appearance order) and a
JSON manifest listing the shards with a sha256 per file (a shard's as it is written).
:class:`ShardedCompiledTrace` is the ``CompiledTrace`` over such a
directory.  :func:`compile_workload` is the same pass with no files: one
in-RAM shard and the URI list as the name table.

Both are the one interning pass (:func:`_intern_pass`), so the contract
is **bit-equality**: concatenating a trace's shards reproduces
:func:`compile_workload`'s columns exactly — same dtypes, same
first-appearance intern order, same occurrence index (asserted by the
property suite in ``tests/workload/test_sharded.py``).  That is what lets
``stream → shards → replay`` equal ``generate() → replay`` on every
observable.

Readers open shards with ``numpy.load(mmap_mode="r")`` and release each
one (``madvise(MADV_DONTNEED)``) after consuming it, so peak RSS of a
full replay is bounded by one shard plus O(n_names) replay state —
independent of trace length.

Nothing read from disk is trusted.  No digest covers the manifest, so
:meth:`ShardedCompiledTrace.open` checks its shape and that its shards
tile ``0..n_requests`` in order; every shard load checks its length and
that its content ids index the name table; :meth:`~ShardedCompiledTrace.verify`
re-hashes every file, and reads the name table once to hash it, count its
lines and decode it as UTF-8.  Each failure is a
:class:`ShardIntegrityError`, which the sweep-runner trace cache turns
into regenerate-on-mismatch.
"""

from __future__ import annotations

import codecs
import hashlib
import io
import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib import format as npy

from repro.ndn.name import Name, uri_components
from repro.workload.compiled import CompiledTrace, TraceShard, _occurrence_index
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
            out[field] = np.ascontiguousarray(
                np.concatenate(parts) if len(parts) > 1 else parts[0], dtype=dtype
            )
        return out

    def _flush(self, count: int) -> None:
        index = len(self.shards)
        columns = self._take(count)
        checksums: Dict[str, str] = {}
        for field, column in columns.items():
            # np.save's bytes, hashed on the way out: a 1.0 header, the column.
            header = io.BytesIO()
            npy.write_array_header_1_0(header, npy.header_data_from_array_1_0(column))
            digest = hashlib.sha256(header.getvalue())
            digest.update(column.data)
            with (self.out_dir / _shard_file(index, field)).open("wb") as handle:
                handle.writelines((header.getvalue(), column.data))
            checksums[field] = digest.hexdigest()
        self.shards.append(
            {"index": index, "start": self.written, "count": count,
             "checksums": checksums}
        )
        self.written += count
        self.buffered -= count

    def finish(self) -> None:
        if self.buffered:
            self._flush(self.buffered)


def _intern_pass(
    workload: Workload, chunk_size: Optional[int]
) -> Iterator[Tuple[Dict[str, np.ndarray], List[str]]]:
    """The one interning pass: per block, its columns (keyed as
    :data:`_FIELDS`) and the URIs of the content ids it introduces.

    Content ids are dense int32 in first-appearance order and the
    occurrence index runs across blocks, the same for any ``chunk_size``:
    this is the only code that assigns them.  Keys index an array: sized by
    ``key_space`` when the workload knows it, else grown to the largest
    key seen (the :class:`Workload` contract: keys are non-negative, and
    dense without a ``key_space``).
    """
    key_to_cid = np.full(workload.key_space or 0, -1, dtype=np.int64)
    # Per-cid running request counts (occurrence index source).
    occ_counts = np.zeros(max(1024, int(workload.n_names)), dtype=np.int64)
    n_names = 0
    for block in workload.iter_blocks(chunk_size):
        keys = block.keys
        if keys.min(initial=0) < 0:
            raise ValueError(f"content keys must be >= 0, got {keys.min()}")
        key_to_cid = _grown(key_to_cid, int(keys.max(initial=-1)) + 1, -1)
        cids = key_to_cid[keys]
        missing = cids < 0
        new_uris: List[str] = []
        if missing.any():
            uniq, first_idx = np.unique(keys[missing], return_index=True)
            new_keys = uniq[np.argsort(first_idx, kind="stable")]
            new_uris = workload.uris_of(new_keys)
            key_to_cid[new_keys] = np.arange(n_names, n_names + len(new_keys))
            cids = key_to_cid[keys]
            n_names += len(new_keys)
            occ_counts = _grown(occ_counts, n_names, 0)
        users = block.users.astype(np.int32)
        wrapped = users != block.users
        if wrapped.any():
            raise OverflowError(f"user id {block.users[wrapped][0]} out of int32 range")
        cids32 = cids.astype(np.int32)
        occurrence = _occurrence_index(cids32, n_names) + occ_counts[cids]
        np.add.at(occ_counts, cids, 1)
        yield {
            "ids": cids32,
            "times": np.asarray(block.times, dtype=np.float64),
            "users": users,
            "occurrence": occurrence.astype(np.int32),
            "first": occurrence == 0,
        }, new_uris


def _grown(array: np.ndarray, size: int, fill: int) -> np.ndarray:
    """``array`` if it holds ``size`` entries, else a copy grown by
    amortized doubling, new entries ``fill``."""
    if size <= len(array):
        return array
    grown = np.full(max(size, 2 * len(array)), fill, dtype=array.dtype)
    grown[: len(array)] = array
    return grown


def compile_workload(workload: Workload) -> CompiledTrace:
    """:func:`compile_stream` without the files: the same pass, its
    blocks collected into one in-RAM :class:`TraceShard`.

    The one place a workload becomes a compiled trace: a trace that is
    already compiled (in RAM or sharded) is returned unchanged.  The name
    table holds the workload's URIs (:class:`LazyNameTable`); no
    :class:`~repro.workload.streaming.Request` and no interned
    :class:`~repro.ndn.name.Name` is made.  This is
    ``IrcacheGenerator.generate()``, and how a TSV file is imported
    (``TsvWorkload`` in, columns out).
    """
    if isinstance(workload, CompiledTrace):
        return workload
    uris: List[str] = []
    blocks: List[Dict[str, np.ndarray]] = []
    for columns, new_uris in _intern_pass(workload, None):
        uris.extend(new_uris)
        blocks.append(columns)
    return CompiledTrace(LazyNameTable(uris), [TraceShard(0, 0, *(
        np.concatenate([block[field] for block in blocks] or [np.zeros(0, dtype)])
        for field, dtype in _FIELDS
    ))])  # fmt: skip


def compile_stream(
    workload: Workload,
    out_dir: Union[str, Path],
    shard_size: int = DEFAULT_SHARD_SIZE,
    chunk_size: Optional[int] = None,
    source: Optional[dict] = None,
) -> "ShardedCompiledTrace":
    """Compile a workload to the sharded on-disk format in one pass.

    The interning pass is :func:`compile_workload`'s (bit-equal to it on
    the same request sequence, for any ``shard_size``/``chunk_size``);
    here each block's
    new URIs are appended to the name table file in one write and its
    columns to the current shard.  Returns the opened :class:`ShardedCompiledTrace`.
    ``source`` is an arbitrary JSON-able provenance dict stored in the
    manifest (the sweep cache puts the generator fingerprint here).
    """
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    writer = _ShardWriter(out, shard_size)
    n_names = 0
    with (out / NAMES_FILE).open("w", encoding="utf-8") as names_out:
        for columns, new_uris in _intern_pass(workload, chunk_size):
            names_out.write("".join([uri + "\n" for uri in new_uris]))
            n_names += len(new_uris)
            writer.push(columns)
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
    """``names[content_id]`` over a compiled trace's URI list.

    The URIs are held in RAM (``LazyNameTable(uris)``, what
    :func:`compile_workload` builds) or read from a shard directory's
    table file (``LazyNameTable(path, count)``).  ``len()``, :meth:`iter_uris`
    and :meth:`uris` build no :class:`Name` (the replay kernels, the coin
    pass, ``uris_of``).  Names are built on demand, outside the global
    intern pool: iterating builds them once and keeps them in RAM, but
    once per pass from a file, so walking a million-name table pins
    nothing; random access builds and keeps them all.
    """

    def __init__(
        self, source: Union[List[str], Path], count: Optional[int] = None
    ) -> None:
        in_ram = isinstance(source, list)
        self.path: Optional[Path] = None if in_ram else source
        self._uris: List[str] = source if in_ram else []
        self._count = len(source) if in_ram else count
        self._names: Optional[List[Name]] = None

    def __len__(self) -> int:
        return self._count

    def iter_uris(self) -> Iterator[str]:
        """The table's URIs; a file raises at the end unless it held
        ``len(self)`` lines."""
        if self.path is None:
            yield from self._uris
            return
        found = 0
        try:
            with self.path.open("r", encoding="utf-8", newline="\n") as handle:
                for found, line in enumerate(handle, start=1):
                    yield line.rstrip("\n")
        except UnicodeDecodeError as error:
            raise ShardIntegrityError(f"{self.path}: not UTF-8: {error}") from error
        if found != self._count:
            raise ShardIntegrityError(
                f"{self.path}: expected {self._count} names, found {found}"
            )

    def uris(self) -> List[str]:
        """The URIs as a list; a file is read once and kept."""
        if self.path is not None and len(self._uris) != self._count:
            self._uris = list(self.iter_uris())
        return self._uris

    def _kept(self) -> List[Name]:
        if self._names is None:
            self._names = list(map(Name, map(uri_components, self.iter_uris())))
        return self._names

    def __iter__(self) -> Iterator[Name]:
        if self.path is None:
            return iter(self._kept())
        return map(Name, map(uri_components, self.iter_uris()))

    def __getitem__(self, index):  # type: ignore[override]
        return self._kept()[index]


def _scan_name_table(path: Path) -> Tuple[str, int]:
    """(hex SHA-256, line count) of a name table in one buffered read,
    decoding it as UTF-8 on the way.  Lines are counted as
    :meth:`LazyNameTable.iter_uris` reads them: split at line feeds only,
    a last line without one included."""
    digest = hashlib.sha256()
    decoder = codecs.getincrementaldecoder("utf-8")()
    lines = 0
    last = b"\n"
    try:
        with path.open("rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
                decoder.decode(block)
                lines += block.count(b"\n")
                last = block[-1:]
        decoder.decode(b"", final=True)
    except UnicodeDecodeError as error:
        raise ShardIntegrityError(f"{path}: not UTF-8: {error}") from error
    return digest.hexdigest(), lines + (last != b"\n")


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
        mismatch, name-count mismatch or name table that is not UTF-8 (the
        trace cache regenerates on this).
        """
        names_path = self.names.path
        if not names_path.is_file():
            raise ShardIntegrityError(f"{names_path}: missing name table")
        digest, lines = _scan_name_table(names_path)
        if digest != self.manifest.get("names_sha256"):
            raise ShardIntegrityError(f"{names_path}: checksum mismatch")
        if lines != len(self.names):
            raise ShardIntegrityError(
                f"{names_path}: expected {len(self.names)} names, found {lines}"
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
