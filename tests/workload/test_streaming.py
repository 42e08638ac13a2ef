"""The Workload protocol: chunk-invariant streaming request sources."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ndn.errors import NameError_
from repro.perf import parallel
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator
from repro.workload.sharded import compile_stream, compile_workload
from repro.workload.streaming import (
    RequestBlock,
    TsvWorkload,
    Workload,
    iter_requests,
    materialize,
    rechunk,
)
from repro.workload.trace import Trace

CONFIG = IrcacheConfig(requests=5000, users=60, objects=800, sites=12, seed=3)


def expected_columns(trace) -> dict:
    """The compiled columns of ``trace``, counted request by request
    (dense ids in first-appearance order) and the name table."""
    intern, counts, ids, occurrence = {}, [], [], []
    for request in trace:
        cid = intern.setdefault(request.name, len(intern))
        counts += [0] * (cid == len(counts))
        ids.append(cid)
        occurrence.append(counts[cid])
        counts[cid] += 1
    return dict(
        ids=np.array(ids, dtype=np.int32),
        times=np.array([r.time for r in trace], dtype=np.float64),
        users=np.array([r.user for r in trace], dtype=np.int32),
        occurrence_index=np.array(occurrence, dtype=np.int32),
        first_occurrence=np.array(occurrence) == 0,
        names=list(intern),
    )


def _concat(blocks):
    blocks = list(blocks)
    return (
        np.concatenate([b.times for b in blocks]),
        np.concatenate([b.users for b in blocks]),
        np.concatenate([b.keys for b in blocks]),
    )


# ----------------------------------------------------------------------
# Protocol conformance
# ----------------------------------------------------------------------
def test_implementations_satisfy_protocol(tmp_path):
    stream = IrcacheGenerator(CONFIG).stream()
    assert isinstance(stream, Workload)
    trace = IrcacheGenerator(CONFIG).generate()
    assert isinstance(trace, Workload)
    assert isinstance(trace.compile(), Workload)
    path = tmp_path / "trace.tsv"
    trace.save(path)
    assert isinstance(TsvWorkload(path), Workload)


def test_request_block_rejects_ragged_columns():
    with pytest.raises(ValueError, match="ragged"):
        RequestBlock(
            times=np.zeros(3), users=np.zeros(2, np.int64), keys=np.zeros(3, np.int64)
        )


# ----------------------------------------------------------------------
# rechunk
# ----------------------------------------------------------------------
def test_rechunk_is_exact_reslicing():
    rng = np.random.default_rng(0)
    blocks = []
    cursor = 0.0
    for size in (5, 1, 17, 0, 64, 3):
        times = np.sort(rng.random(size)) + cursor
        cursor += 1.0
        blocks.append(
            RequestBlock(
                times=times,
                users=rng.integers(0, 10, size),
                keys=rng.integers(0, 50, size),
            )
        )
    flat = _concat(blocks)
    for chunk in (1, 2, 7, 90, 1000):
        rechunked = list(rechunk(iter(blocks), chunk))
        assert all(len(b) == chunk for b in rechunked[:-1])
        assert 0 < len(rechunked[-1]) <= chunk
        out = _concat(rechunked)
        for a, b in zip(flat, out):
            np.testing.assert_array_equal(a, b)
    # chunk_size=None passes blocks through untouched.
    assert [len(b) for b in rechunk(iter(blocks), None)] == [5, 1, 17, 0, 64, 3]
    with pytest.raises(ValueError):
        list(rechunk(iter(blocks), 0))


# ----------------------------------------------------------------------
# The synthetic generator's stream
# ----------------------------------------------------------------------
def test_stream_is_chunk_size_invariant():
    """The acceptance criterion: the byte stream is a function of the
    seed alone — consumer chunking never perturbs sampling."""
    stream = IrcacheGenerator(CONFIG).stream()
    baseline = _concat(stream.iter_blocks())
    for chunk in (1000, 777, 13):
        out = _concat(IrcacheGenerator(CONFIG).stream().iter_blocks(chunk))
        for a, b in zip(baseline, out):
            np.testing.assert_array_equal(a, b)


def test_stream_matches_generate():
    trace = IrcacheGenerator(CONFIG).generate()
    stream = IrcacheGenerator(CONFIG).stream()
    requests = list(iter_requests(stream))
    assert len(requests) == len(trace) == CONFIG.requests
    for a, b in zip(requests, trace):
        assert (a.time, a.user, str(a.name)) == (b.time, b.user, str(b.name))
    assert stream.n_requests == CONFIG.requests
    assert stream.key_space == CONFIG.objects
    assert 0 < stream.n_names <= CONFIG.objects


def test_stream_times_sorted_and_bounded():
    stream = IrcacheGenerator(CONFIG).stream()
    times = _concat(stream.iter_blocks(512))[0]
    assert np.all(np.diff(times) >= 0)
    assert times[0] >= 0.0
    assert times[-1] <= CONFIG.duration_hours * 3_600_000.0  # ms


def test_materialize_roundtrip():
    trace = materialize(IrcacheGenerator(CONFIG).stream())
    direct = IrcacheGenerator(CONFIG).generate()
    assert len(trace) == len(direct)
    assert str(trace[0].name) == str(direct[0].name)


# ----------------------------------------------------------------------
# TSV reader and trace adapter
# ----------------------------------------------------------------------
def test_tsv_workload_streams_the_saved_trace(tmp_path):
    trace = IrcacheGenerator(CONFIG).generate()
    path = tmp_path / "trace.tsv"
    trace.save(path)
    workload = TsvWorkload(path)
    assert workload.key_space is None  # unknown before the first pass
    requests = list(iter_requests(workload))
    reloaded = Trace.load(path)
    assert len(requests) == len(reloaded)
    for a, b in zip(requests, reloaded):
        assert (a.time, a.user, str(a.name)) == (b.time, b.user, str(b.name))
    # Counts are exact after one full pass; keys are stable across passes.
    assert workload.n_requests == len(trace)
    assert workload.key_space == workload.n_names
    again = _concat(workload.iter_blocks(97))
    first = _concat(TsvWorkload(path).iter_blocks(11))
    for a, b in zip(first, again):
        np.testing.assert_array_equal(a, b)


def test_tsv_workload_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("1.0\t2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="3 tab-separated"):
        list(TsvWorkload(path).iter_blocks())


#: Lines the TSV reader once sharded without complaint, each with the
#: exception ``Trace.load`` raises for it.
MALFORMED_LINES = {
    "negative time": ("-1.000\t3\t/a/b", ValueError),
    "negative user": ("1.000\t-3\t/a/b", ValueError),
    "no leading slash": ("1.000\t3\ta/b", NameError_),
    "empty component": ("1.000\t3\t/a//b", NameError_),
    "trailing slash": ("1.000\t3\t/a/b/", NameError_),
}


@pytest.mark.parametrize(
    "line,error", MALFORMED_LINES.values(), ids=list(MALFORMED_LINES)
)
def test_tsv_readers_refuse_what_trace_load_refuses(tmp_path, monkeypatch, line, error):
    path = tmp_path / "trace.tsv"
    path.write_text(f"0.000\t0\t/a/b\n# seen\n{line}\n2.000\t1\t/c\n", encoding="utf-8")
    parallel._write_digest(path)  # the worker loader checks the digest first
    monkeypatch.setattr(parallel, "_PROCESS_TRACES", {})
    readers = {
        "Trace.load": lambda: Trace.load(path),
        "worker loader": lambda: parallel._load_trace(str(path)),
        "compile_stream": lambda: compile_stream(TsvWorkload(path), tmp_path / "out"),
    }
    for label, read in readers.items():
        with pytest.raises(error) as raised:
            read()
        assert type(raised.value) is error, label
        if label != "Trace.load":
            assert str(raised.value).startswith(f"{path}:3: "), label


def test_a_user_id_beyond_int32_is_refused_not_wrapped(tmp_path, monkeypatch):
    """``Trace.load`` takes it, compiling it to the int32 column does not."""
    path = tmp_path / "trace.tsv"
    path.write_text(f"0.000\t0\t/a\n1.000\t{2**31}\t/b\n", encoding="utf-8")
    parallel._write_digest(path)
    monkeypatch.setattr(parallel, "_PROCESS_TRACES", {})
    with pytest.raises(OverflowError):
        Trace.load(path).compile()
    with pytest.raises(OverflowError, match=str(2**31)):
        parallel._load_trace(str(path))
    with pytest.raises(OverflowError, match=str(2**31)):
        compile_stream(TsvWorkload(path), tmp_path / "out")


_COMPONENTS = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="/\t\n\r"),
    min_size=1,
    max_size=5,
)
#: Any URI ``Name.parse`` accepts, the root ``/`` included.
_URIS = st.lists(_COMPONENTS, max_size=3).map(lambda parts: "/" + "/".join(parts))


@st.composite
def tsv_lines(draw, min_rows: int = 0):
    """The lines of a valid TSV trace: a few URIs requested many times
    over, with comment and blank lines in between."""
    vocabulary = draw(st.lists(_URIS, min_size=1, max_size=6))
    rows = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e7),
                st.integers(min_value=0, max_value=10**6),
                st.sampled_from(vocabulary),
            ),
            min_size=min_rows,
            max_size=50,
        )
    )
    lines = [f"{time:.3f}\t{user}\t{uri}\n" for time, user, uri in rows]
    for at, extra in sorted(
        draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=len(lines)),
                    st.sampled_from(["\n", "# comment\n", "#\ttabbed\tcomment\n"]),
                ),
                max_size=4,
            )
        ),
        reverse=True,
    ):
        lines.insert(at, extra)
    return lines


def _edit(data, line: str) -> str:
    """One single-field edit of a request line."""
    time, user, uri = line.rstrip("\n").split("\t")
    edit = data.draw(
        st.sampled_from(
            ["drop a tab", "add a tab", "negate the time", "negate the user",
             "empty a component", "drop the leading slash"]
        )
    )  # fmt: skip
    if edit == "drop a tab":
        if data.draw(st.booleans()):
            return f"{time}{user}\t{uri}"
        return f"{time}\t{user}{uri}"
    if edit == "add a tab":
        at = data.draw(st.integers(min_value=0, max_value=len(line) - 1))
        return line[:at] + "\t" + line[at:].rstrip("\n")
    if edit == "negate the time":
        return f"-{time}\t{user}\t{uri}"
    if edit == "negate the user":
        return f"{time}\t-{user}\t{uri}"
    if edit == "empty a component":
        parts = uri.split("/")
        parts[data.draw(st.integers(min_value=1, max_value=len(parts) - 1))] = ""
        return f"{time}\t{user}\t{'/'.join(parts)}"
    return f"{time}\t{user}\t{uri[1:]}"


def _outcome(read):
    """The compiled trace, or the type of what refused it (any other
    exception propagates and fails the test)."""
    try:
        return read()
    except (ValueError, NameError_) as error:
        return type(error)


@settings(max_examples=150, deadline=None)
@given(lines=tsv_lines(min_rows=1), data=st.data())
def test_any_single_edit_of_a_tsv_fails_closed_alike(tmp_path_factory, lines, data):
    """Drop or add a tab, negate a time or user, empty a component, drop
    the leading slash: ``Trace.load`` and the worker's loader raise the
    same exception type, or both load the same columns."""
    requests = [
        i for i, line in enumerate(lines) if line.strip() and not line.startswith("#")
    ]
    at = data.draw(st.sampled_from(requests))
    lines[at] = _edit(data, lines[at]) + "\n"
    path = tmp_path_factory.mktemp("edited") / "trace.tsv"
    path.write_text("".join(lines), encoding="utf-8")
    theirs = _outcome(lambda: expected_columns(Trace.load(path)))
    ours = _outcome(lambda: compile_workload(TsvWorkload(path)))
    if isinstance(theirs, type):
        assert ours is theirs
        return
    assert not isinstance(ours, type), ours
    for column in ("ids", "times", "users", "occurrence_index", "first_occurrence"):
        np.testing.assert_array_equal(getattr(ours, column), theirs[column])
    assert list(ours.iter_uris()) == [str(name) for name in theirs["names"]]


def test_trace_workload_uses_compiled_ids():
    """A trace's keys, its name-pool indices, are its compiled ids."""
    trace = IrcacheGenerator(CONFIG).generate()
    expected = expected_columns(trace)
    assert trace.n_requests == len(trace)
    assert trace.key_space == trace.n_names == len(expected["names"])
    times, users, keys = _concat(trace.iter_blocks(333))
    np.testing.assert_array_equal(times, expected["times"])
    np.testing.assert_array_equal(users, expected["users"])
    np.testing.assert_array_equal(keys, expected["ids"])
    assert trace.uri_of(int(keys[-1])) == str(expected["names"][int(keys[-1])])
