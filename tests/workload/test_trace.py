"""Unit tests for request records, compiled-trace statistics, and the TSV
round-trip (``save_tsv`` out, ``compile_workload(TsvWorkload)`` in)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ndn.name import Name
from repro.workload.sharded import compile_workload
from repro.workload.streaming import Request, TsvWorkload, save_tsv
from tests.conftest import compiled_trace


def req(time, user, uri):
    return Request(time=time, user=user, name=Name.parse(uri))


class TestRequest:
    def test_fields(self):
        r = req(1.5, 3, "/s1/o1")
        assert r.time == 1.5
        assert r.user == 3
        assert r.name == Name.parse("/s1/o1")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            req(-1.0, 0, "/a")

    def test_negative_user_rejected(self):
        with pytest.raises(ValueError):
            req(0.0, -1, "/a")


class TestTrace:
    def test_statistics(self):
        trace = compiled_trace([
            req(0.0, 0, "/a"),
            req(1.0, 1, "/a"),
            req(2.0, 0, "/b"),
            req(9.0, 2, "/c"),
        ])
        assert trace.n_names == 3
        assert len(np.unique(trace.users)) == 3
        assert trace.times[-1] - trace.times[0] == 9.0
        assert np.bincount(trace.ids)[0] == 2
        assert trace.names[0] == Name.parse("/a")

    def test_max_hit_rate(self):
        trace = compiled_trace([req(float(i), 0, "/a") for i in range(4)])
        assert trace.max_hit_rate == pytest.approx(0.75)

    def test_empty_trace_statistics(self):
        trace = compiled_trace([])
        assert trace.max_hit_rate == 0.0
        assert trace.n_requests == trace.n_names == 0
        assert len(trace.times) == 0


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        trace = compiled_trace([
            req(0.5, 0, "/s1/o1"),
            req(1.25, 184, "/s2/o9"),
        ])
        path = tmp_path / "trace.tsv"
        assert save_tsv(trace, path) == (2, 2, 2)
        loaded = list(compile_workload(TsvWorkload(path)))
        assert len(loaded) == 2
        assert loaded[1].user == 184
        assert loaded[1].name == Name.parse("/s2/o9")
        assert loaded[0].time == pytest.approx(0.5)

    def test_load_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "trace.tsv"
        path.write_text("# header\n\n1.0\t3\t/a/b\n")
        loaded = compile_workload(TsvWorkload(path))
        assert loaded.n_requests == 1

    def test_load_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1.0\t3\n")
        with pytest.raises(ValueError, match="expected 3"):
            compile_workload(TsvWorkload(path))


class TestRequestMemoryLayout:
    """The Request footprint contract, and a compiled trace's TSV form."""

    def test_request_has_slots_no_dict(self):
        request = Request(time=1.0, user=3, name=Name.parse("/a/b"))
        assert not hasattr(request, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            request.extra = 1  # type: ignore[attr-defined]

    def test_interning_preserves_tsv_roundtrip(self, tmp_path):
        trace = compiled_trace([
            Request(time=0.5, user=12, name=Name.parse("/s1/o4")),
            Request(time=1.5, user=184, name=Name.parse("/s2/o9")),
            Request(time=2.0, user=12, name=Name.parse("/s1/o4")),
        ])
        path = tmp_path / "trace.tsv"
        assert save_tsv(trace, path) == (3, 2, 2)
        reloaded = compile_workload(TsvWorkload(path))
        assert reloaded.n_requests == 3
        for a, b in zip(trace, reloaded):
            assert (a.time, a.user, str(a.name)) == (b.time, b.user, str(b.name))
        for column in ("ids", "times", "users", "occurrence_index"):
            np.testing.assert_array_equal(
                getattr(trace, column), getattr(reloaded, column)
            )
        assert list(trace.iter_uris()) == list(reloaded.iter_uris())
        assert trace.max_hit_rate == reloaded.max_hit_rate
