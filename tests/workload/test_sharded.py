"""Sharded compiled traces: bit-equality with the in-RAM compiler,
checksummed integrity, and bounded-residency replay parity."""

from __future__ import annotations

import copy
import json
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schemes.no_privacy import NoPrivacyScheme
from repro.core.schemes.uniform import UniformRandomCache
from repro.deploy.daemon import make_scheme
from repro.workload.fast_replay import fast_replay
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator
from repro.workload.marking import ContentMarking, NoMarking, RequestMarking
from repro.workload.replay import replay
from repro.workload.sharded import (
    ShardedCompiledTrace,
    ShardIntegrityError,
    compile_stream,
    compile_workload,
    file_sha256,
)
from repro.workload.streaming import RequestBlock, TsvWorkload
from tests.workload.test_streaming import expected_columns, tsv_lines


def _config(requests: int, seed: int) -> IrcacheConfig:
    return IrcacheConfig(
        requests=requests, users=30, objects=300, sites=8,
        session_locality=0.3, seed=seed,
    )


def _assert_bit_equal(sharded: ShardedCompiledTrace, trace) -> None:
    expected = expected_columns(trace)
    requests = len(expected["ids"])
    assert sharded.n_requests == requests
    assert sharded.n_names == len(expected["names"])
    for field in ("ids", "times", "users", "occurrence_index", "first_occurrence"):
        ours = getattr(sharded, field)
        assert ours.dtype == expected[field].dtype, field
        np.testing.assert_array_equal(ours, expected[field], err_msg=field)
    assert [str(n) for n in sharded.names] == [str(n) for n in expected["names"]]
    assert sharded.max_hit_rate == pytest.approx(1 - sharded.n_names / requests)


# ----------------------------------------------------------------------
# Satellite: the Hypothesis bit-equality property
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(
    requests=st.integers(min_value=1, max_value=2500),
    shard_size=st.integers(min_value=1, max_value=3000),
    chunk_size=st.one_of(st.none(), st.integers(min_value=1, max_value=900)),
    seed=st.integers(min_value=0, max_value=5),
)
def test_compile_stream_bit_equal_to_compile_trace(
    tmp_path_factory, requests, shard_size, chunk_size, seed
):
    """Shards of a trace concatenate bit-equal to compiling it request by
    request (the expected columns) for arbitrary shard/chunk sizes and
    seeds — dtypes, intern order, occurrence index — and a compiled trace
    re-lowered to shards keeps its columns."""
    out = tmp_path_factory.mktemp("shards")
    stream = IrcacheGenerator(_config(requests, seed)).stream()
    sharded = compile_stream(stream, out, shard_size=shard_size, chunk_size=chunk_size)
    _assert_bit_equal(sharded, stream)
    again = compile_stream(sharded, out / "again", shard_size=shard_size)
    _assert_bit_equal(again, stream)
    expected_shards = -(-requests // shard_size)
    assert sharded.n_shards == expected_shards


@settings(max_examples=60, deadline=None)
@given(
    lines=tsv_lines(),
    chunk_size=st.one_of(st.none(), st.integers(min_value=1, max_value=7)),
    salt=st.integers(min_value=0, max_value=2**32),
)
def test_tsv_compiled_in_ram_equals_trace_load_then_compile(
    tmp_path_factory, lines, chunk_size, salt
):
    """The pass over the TSV reader, without files (what a sweep worker
    holds) and into shards one small block at a time, equals the columns
    of the file read as requests, column for column: unicode components,
    the root name, comment and blank lines, heavy repeats, any number of
    blocks."""
    path = tmp_path_factory.mktemp("tsv") / "trace.tsv"
    path.write_text("".join(lines), encoding="utf-8")
    theirs = expected_columns(TsvWorkload(path))
    in_ram = compile_workload(TsvWorkload(path))
    streamed = compile_stream(
        TsvWorkload(path), path.parent / "shards", shard_size=5, chunk_size=chunk_size
    )
    for ours in (in_ram, streamed):
        for column in ("ids", "times", "users", "occurrence_index", "first_occurrence"):
            got, expected = getattr(ours, column), theirs[column]
            assert got.dtype == expected.dtype, column
            np.testing.assert_array_equal(got, expected, err_msg=column)
    uris = [str(name) for name in theirs["names"]]
    assert list(in_ram.iter_uris()) == uris
    assert list(streamed.iter_uris()) == uris
    assert list(in_ram.names) == theirs["names"]
    rule = ContentMarking(0.5, salt=salt)
    np.testing.assert_array_equal(
        in_ram.content_coins(rule), [rule.coin(uri) for uri in uris]
    )


class _SignedKeys:
    """A workload that breaks the key contract: its keys run negative."""

    def __init__(self, workload):
        self.workload = workload

    def __getattr__(self, name):
        return getattr(self.workload, name)

    def iter_blocks(self, chunk_size=None):
        for block in self.workload.iter_blocks(chunk_size):
            yield RequestBlock(block.times, block.users, -1 - block.keys)


def test_negative_content_keys_are_refused_not_aliased(tmp_path):
    stream = IrcacheGenerator(_config(50, seed=1)).stream()
    with pytest.raises(ValueError, match="content keys must be >= 0"):
        compile_workload(_SignedKeys(stream))
    with pytest.raises(ValueError, match="content keys must be >= 0"):
        compile_stream(_SignedKeys(stream), tmp_path)


def test_compile_stream_from_generator_stream(tmp_path):
    """stream → shards (never held in RAM) equals ``generate()``."""
    config = _config(4000, seed=11)
    sharded = compile_stream(
        IrcacheGenerator(config).stream(), tmp_path, shard_size=700, chunk_size=513
    )
    _assert_bit_equal(sharded, IrcacheGenerator(config).generate())


# ----------------------------------------------------------------------
# Integrity: checksums, corruption, open-time validation
# ----------------------------------------------------------------------
def test_verify_passes_then_catches_corruption(tmp_path):
    config = _config(1500, seed=2)
    sharded = compile_stream(
        IrcacheGenerator(config).stream(), tmp_path, shard_size=400
    )
    sharded.verify()
    victim = tmp_path / "shard-00001.times.npy"
    payload = bytearray(victim.read_bytes())
    payload[-1] ^= 0xFF
    victim.write_bytes(bytes(payload))
    with pytest.raises(ShardIntegrityError, match="checksum"):
        ShardedCompiledTrace.open(tmp_path).verify()
    with pytest.raises(ShardIntegrityError, match="checksum"):
        ShardedCompiledTrace.open(tmp_path).load_shard(1, verify=True)


def test_corrupted_name_table_detected(tmp_path):
    sharded = compile_stream(
        IrcacheGenerator(_config(800, seed=4)).stream(), tmp_path, shard_size=300
    )
    names_path = tmp_path / "names.tsv"
    names_path.write_text(
        names_path.read_text(encoding="utf-8") + "/evil/extra\n", encoding="utf-8"
    )
    with pytest.raises(ShardIntegrityError, match="checksum"):
        ShardedCompiledTrace.open(tmp_path).verify()


@pytest.mark.parametrize("extra", [-3, 1], ids=["truncated", "over-long"])
def test_name_table_of_the_wrong_length_fails_closed_unverified(tmp_path, extra):
    """Pooled workers ``open()`` without ``verify()``, so the coin pass is
    the first reader of ``names.tsv``: a short table must not surface as
    numpy's ValueError, nor a long one's tail be ignored."""
    compile_stream(IrcacheGenerator(_config(800, seed=4)).stream(), tmp_path, 300)
    names_path = tmp_path / "names.tsv"
    intact = names_path.read_text(encoding="utf-8")
    lines = intact.splitlines(keepends=True)

    def run(sharded):
        return fast_replay(
            sharded, scheme=NoPrivacyScheme(), marking=ContentMarking(0.2, salt=1),
            cache_size=64,
        )  # fmt: skip

    expected = run(ShardedCompiledTrace.open(tmp_path))
    edited = lines[:extra] if extra < 0 else lines + ["/evil/extra\n"] * extra
    names_path.write_text("".join(edited), encoding="utf-8")
    sharded = ShardedCompiledTrace.open(tmp_path)
    with pytest.raises(
        ShardIntegrityError,
        match=rf"names\.tsv: expected {len(lines)} names, found {len(edited)}$",
    ):
        run(sharded)
    # No partial column was memoized: once the table is repaired the
    # very same object replays right.
    names_path.write_text(intact, encoding="utf-8")
    assert run(sharded) == expected


def _edit_name_table(root, edit) -> None:
    """Rewrite ``names.tsv`` as ``edit(bytes)`` and re-sign it in the
    manifest, so only the table's content can fail ``verify()``."""
    names_path = root / "names.tsv"
    names_path.write_bytes(edit(names_path.read_bytes()))
    manifest_path = root / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["names_sha256"] = file_sha256(names_path)
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


def test_name_table_that_is_not_utf8_fails_closed(tmp_path):
    compile_stream(IrcacheGenerator(_config(800, seed=4)).stream(), tmp_path, 300)
    _edit_name_table(tmp_path, lambda table: b"\xff\xfe" + table[2:])
    sharded = ShardedCompiledTrace.open(tmp_path)
    with pytest.raises(ShardIntegrityError, match=r"names\.tsv: not UTF-8"):
        sharded.verify()
    with pytest.raises(ShardIntegrityError, match=r"names\.tsv: not UTF-8"):
        list(sharded.iter_uris())


@pytest.mark.parametrize("edit,delta", [
    (lambda table: table + b"/evil/extra\n", 1),
    (lambda table: table + b"/evil/unterminated", 1),
    (lambda table: table[: table.rindex(b"\n", 0, -1) + 1], -1),
    (lambda table: b"/\r" + table[1:], 0),
], ids=["extra-line", "unterminated-line", "missing-line", "carriage-return"])
def test_verify_counts_names_as_iter_uris_reads_them(tmp_path, edit, delta):
    """``verify()`` counts lines in its one read exactly as the unverified
    reader splits them: at line feeds only (a carriage return is part of
    its URI), a last unterminated line included."""
    compile_stream(IrcacheGenerator(_config(800, seed=4)).stream(), tmp_path, 300)
    names = ShardedCompiledTrace.open(tmp_path).n_names
    _edit_name_table(tmp_path, edit)
    sharded = ShardedCompiledTrace.open(tmp_path)
    if delta == 0:
        sharded.verify()
        uris = list(sharded.iter_uris())
        assert len(uris) == names and uris[0].startswith("/\r")
        return
    message = rf"expected {names} names, found {names + delta}$"
    with pytest.raises(ShardIntegrityError, match=message):
        sharded.verify()
    with pytest.raises(ShardIntegrityError, match=message):
        list(sharded.iter_uris())


def test_open_rejects_missing_or_malformed_manifest(tmp_path):
    with pytest.raises(ShardIntegrityError, match="manifest"):
        ShardedCompiledTrace.open(tmp_path)
    (tmp_path / "manifest.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(ShardIntegrityError):
        ShardedCompiledTrace.open(tmp_path)
    (tmp_path / "manifest.json").write_text(
        '{"format": "something-else", "version": 1}', encoding="utf-8"
    )
    with pytest.raises(ShardIntegrityError, match="format"):
        ShardedCompiledTrace.open(tmp_path)


# ----------------------------------------------------------------------
# The manifest is covered by no digest: it must fail closed on its own
# ----------------------------------------------------------------------
#: Edits to ``manifest.json`` alone that used to open, verify and replay
#: a wrong trace (or die with KeyError/IndexError): name -> in-place edit.
MANIFEST_TAMPERINGS = {
    "drop_last_shard": lambda m: m["shards"].pop(),
    "duplicate_shard": lambda m: m["shards"].append(dict(m["shards"][1])),
    "shards_not_a_list": lambda m: m.update(shards={}),
    "n_requests_not_an_int": lambda m: m.update(n_requests="x"),
    "n_names_lowered": lambda m: m.update(n_names=3),
    "entry_without_checksums": lambda m: m["shards"][0].pop("checksums"),
}


def tamper_manifest(root, tampering: str) -> None:
    path = root / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    MANIFEST_TAMPERINGS[tampering](manifest)
    path.write_text(json.dumps(manifest), encoding="utf-8")


def _open_verify_replay(root):
    sharded = ShardedCompiledTrace.open(root)
    sharded.verify()
    return fast_replay(
        sharded,
        scheme=UniformRandomCache(K=8, rng=np.random.default_rng(5)),
        marking=ContentMarking(0.2, salt=1),
        cache_size=64,
        seed=3,
    )


@pytest.fixture(scope="module")
def four_shards(tmp_path_factory):
    """A valid 1000-request / 4-shard directory, its manifest text, and
    what it replays to."""
    root = tmp_path_factory.mktemp("tamper")
    compile_stream(IrcacheGenerator(_config(1000, seed=3)).stream(), root, 250)
    original = (root / "manifest.json").read_text(encoding="utf-8")
    return root, original, _open_verify_replay(root)


@contextmanager
def _manifest_restored(four_shards):
    """(root, untampered stats); whatever the block writes to the
    module-wide directory's manifest is undone afterwards."""
    root, original, expected = four_shards
    try:
        yield root, expected
    finally:
        (root / "manifest.json").write_text(original, encoding="utf-8")


@pytest.mark.parametrize("tampering", sorted(MANIFEST_TAMPERINGS))
def test_tampered_manifest_fails_closed(four_shards, tampering):
    with _manifest_restored(four_shards) as (root, _):
        tamper_manifest(root, tampering)
        with pytest.raises(ShardIntegrityError):
            _open_verify_replay(root)


def test_load_shard_rejects_ids_outside_the_name_table(four_shards):
    """Without verify(), a shrunk ``n_names`` must not reach the replay
    core's ``bytearray(n_names)`` as an IndexError."""
    with _manifest_restored(four_shards) as (root, _):
        tamper_manifest(root, "n_names_lowered")
        with pytest.raises(ShardIntegrityError, match="content ids"):
            ShardedCompiledTrace.open(root).load_shard(0)


def _paths(node, prefix=()):
    """Every key/index path into a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=5000),
    st.floats(allow_nan=False),
    st.text(max_size=12),
)
_JSON_VALUES = st.one_of(
    _JSON_SCALARS,
    st.lists(_JSON_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=4), _JSON_SCALARS, max_size=3),
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_single_manifest_edit_fails_closed(four_shards, data):
    """Delete, duplicate, nudge or replace any one field of the manifest:
    ``open → verify → fast_replay`` raises exactly ShardIntegrityError
    (anything else propagates and fails here) or is unaffected."""
    manifest = json.loads(four_shards[1])
    path = data.draw(st.sampled_from(sorted(_paths(manifest), key=repr)))
    parent = manifest
    for key in path[:-1]:
        parent = parent[key]
    key, old = path[-1], parent[path[-1]]
    edit = data.draw(st.sampled_from(["delete", "duplicate", "nudge", "replace"]))
    if edit == "delete":
        del parent[key]
    elif edit == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(old))
    elif edit == "nudge" and type(old) is int:
        parent[key] = old + data.draw(st.sampled_from([-1, 1]))
    else:
        parent[key] = data.draw(_JSON_VALUES)
    with _manifest_restored(four_shards) as (root, expected):
        (root / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        try:
            got = _open_verify_replay(root)
        except ShardIntegrityError:
            return
        assert got == expected


def test_shards_are_memory_mapped_and_releasable(tmp_path):
    sharded = compile_stream(
        IrcacheGenerator(_config(1000, seed=7)).stream(), tmp_path, shard_size=256
    )
    shard = sharded.load_shard(0)
    assert isinstance(shard.ids, np.memmap)
    assert len(shard) == 256
    shard.release()  # must not invalidate the mapping
    assert int(shard.ids[0]) >= 0
    total = sum(len(s) for s in sharded.iter_shards())
    assert total == sharded.n_requests


# ----------------------------------------------------------------------
# Replay parity: shard-by-shard fast_replay equals in-RAM fast_replay
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "scheme_name,marking_factory,policy,cache_size",
    [
        ("no-privacy", lambda: NoMarking(), "lru", 64),
        ("uniform", lambda: ContentMarking(0.2, salt=1), "fifo", 32),
        ("exponential", lambda: RequestMarking(0.15, seed=9), "lfu", 128),
        ("always-delay", lambda: ContentMarking(0.1, salt=2), "random", None),
    ],
)
def test_sharded_replay_bit_identical(
    tmp_path, scheme_name, marking_factory, policy, cache_size
):
    """stream→shards→replay == generate()→replay on every
    observable.  Fresh scheme/marking instances per leg: both carry RNG
    state, so sharing one across legs would continue its stream."""
    config = _config(3000, seed=13)
    trace = IrcacheGenerator(config).generate()
    sharded = compile_stream(
        IrcacheGenerator(config).stream(), tmp_path, shard_size=512
    )
    in_ram = fast_replay(
        trace,
        scheme=make_scheme(scheme_name, np.random.default_rng(5)),
        marking=marking_factory(),
        cache_size=cache_size,
        policy=policy,
        seed=17,
    )
    streamed = fast_replay(
        sharded,
        scheme=make_scheme(scheme_name, np.random.default_rng(5)),
        marking=marking_factory(),
        cache_size=cache_size,
        policy=policy,
        seed=17,
    )
    assert in_ram == streamed


def test_sharded_replay_of_a_kernelless_scheme_runs_the_oracle(tmp_path):
    """A scheme without a batch kernel replays the shards' Requests on
    the reference replay."""

    class KernellessScheme(NoPrivacyScheme):
        def make_kernel(self, names):
            return None

    config = _config(200, seed=1)
    sharded = compile_stream(
        IrcacheGenerator(config).stream(), tmp_path, shard_size=64
    )
    expected = replay(
        IrcacheGenerator(config).stream(), scheme=NoPrivacyScheme(), cache_size=32
    )
    assert fast_replay(sharded, scheme=KernellessScheme(), cache_size=32) == expected
