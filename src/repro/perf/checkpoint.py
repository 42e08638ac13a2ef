"""Sweep checkpoint/resume: completed points persisted to disk.

A killed sweep (OOM, preemption, Ctrl-C) should restart from its
completed specs, not from zero.  :class:`SweepCheckpoint` is an
append-only text file, one line per record::

    repro-sweep-checkpoint-v2 <fingerprint>             # header
    <sha256 of the JSON> [spec_index, {ReplayStats}]    # one per completed spec
    ...

The fingerprint hashes the spec list, engine choice, and workload key, so
a checkpoint written by a *different* sweep is never reused — it is
discarded and the file restarted.  Nothing read back is trusted: a record
whose digest does not match, whose JSON does not parse, or that is not
``(int, ReplayStats)`` is damage, handled like a truncated tail (the
process died mid-write) — every intact record before it is kept, and the
specs after it are recomputed.

Because every spec carries its own seed (see
:mod:`repro.perf.parallel`), results assembled across a kill/resume
boundary are bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, Tuple, Union

from repro.workload.replay import ReplayStats

_MAGIC = "repro-sweep-checkpoint-v2"


def _record(index: int, stats: ReplayStats) -> str:
    body = json.dumps([index, dataclasses.asdict(stats)])
    return f"{hashlib.sha256(body.encode('utf-8')).hexdigest()} {body}\n"


def _parse(line: bytes) -> Tuple[int, ReplayStats]:
    """One record line, or ValueError/TypeError if it is damaged."""
    digest, _, body = line.partition(b" ")
    if hashlib.sha256(body).hexdigest().encode("ascii") != digest:
        raise ValueError("record checksum mismatch")
    index, fields = json.loads(body)
    if type(index) is not int:
        raise TypeError(f"spec index {index!r} is not an int")
    return index, ReplayStats(**fields)


class SweepCheckpoint:
    """Append-only record of completed sweep points for one sweep."""

    def __init__(self, path: Union[str, Path], fingerprint: str) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint

    def load(self) -> Dict[int, ReplayStats]:
        """Read completed results; (re)initialize the file when needed.

        Returns ``{spec_index: stats}``.  A missing file, a foreign
        fingerprint, or a damaged header starts the checkpoint fresh; a
        damaged record keeps every record read before it.
        """
        results: Dict[int, ReplayStats] = {}
        try:
            lines = self.path.read_bytes().split(b"\n")
        except FileNotFoundError:
            lines = [b""]
        # After the last newline split() leaves b"": anything else is torn.
        if lines[0] == self._header().encode("utf-8"):
            for line in lines[1:-1]:
                try:
                    index, stats = _parse(line)
                except (ValueError, TypeError):
                    break
                results[index] = stats
            else:
                if lines[-1] == b"":
                    return results
        # Damaged tail: rewrite the surviving prefix.  Foreign, headerless
        # or missing file: results is empty and the rewrite resets it.
        self._rewrite(results)
        return results

    def append(self, index: int, stats: ReplayStats) -> None:
        """Durably record one completed spec."""
        if not self.path.exists():
            self._rewrite({})
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(_record(index, stats))
            handle.flush()

    def _header(self) -> str:
        return f"{_MAGIC} {self.fingerprint}"

    def _rewrite(self, results: Dict[int, ReplayStats]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("w", encoding="utf-8") as handle:
            handle.write(self._header() + "\n")
            for index in sorted(results):
                handle.write(_record(index, results[index]))
            handle.flush()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"SweepCheckpoint({self.path}, fp={self.fingerprint[:12]})"
