"""A sweep worker holds a TSV trace-cache entry as columns, not as a Trace.

Count-based (no timing), in the style of ``test_marking_work.py`` and
``test_scheme_work.py``: compiling the entry builds no ``Request`` and
interns no ``Name``, replaying it with a kernel builds neither, and a
scheme that groups content by name prefix gets the trace's names built
once per loaded trace, not once per spec.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.experiments import run_fig5a
from repro.core.schemes.exponential import ExponentialRandomCache
from repro.core.schemes.grouping import NamespaceGrouping
from repro.ndn.name import Name
from repro.perf import parallel
from repro.perf.parallel import ReplaySpec, ensure_trace_cached, run_replay_sweep
from repro.workload.ircache import IrcacheConfig
from repro.workload.marking import ContentMarking
from repro.workload.trace import Request, Trace

CONFIG = IrcacheConfig(requests=30000)


@pytest.fixture(scope="module")
def entry() -> str:
    return str(ensure_trace_cached(CONFIG))


@pytest.fixture
def counts(monkeypatch):
    """Requests and ``Name`` constructor calls made from here on; the
    process holds no loaded trace yet."""
    monkeypatch.setattr(parallel, "_PROCESS_TRACES", {})
    made = {"requests": 0, "names": 0}
    check_request = Request.__post_init__
    build_name = Name.__init__

    def counting_request(self):
        made["requests"] += 1
        check_request(self)

    def counting_name(self, *args, **kwargs):
        made["names"] += 1
        build_name(self, *args, **kwargs)

    monkeypatch.setattr(Request, "__post_init__", counting_request)
    monkeypatch.setattr(Name, "__init__", counting_name)
    return made


def test_loading_the_entry_builds_no_request_and_interns_no_name(entry, counts):
    pool = len(Name._intern_pool)
    compiled = parallel._load_trace(entry)
    assert compiled.n_requests == CONFIG.requests
    assert counts == {"requests": 0, "names": 0}
    assert len(Name._intern_pool) == pool
    # The counter sees what Trace.load (the loader before) would build.
    assert len(Trace.load(entry)) == counts["requests"] == CONFIG.requests


def test_a_fig5a_sweep_over_the_entry_builds_none_either(entry, counts):
    pool = len(Name._intern_pool)
    figure = run_fig5a(CONFIG, seed=5, workers=1)
    assert len(figure.stats) == 24
    assert counts == {"requests": 0, "names": 0}
    assert len(Name._intern_pool) == pool


def test_grouped_schemes_get_the_names_built_once_per_loaded_trace(entry, counts):
    specs = [
        ReplaySpec(
            scheme=ExponentialRandomCache(
                alpha=0.99, K=50, rng=np.random.default_rng(seed),
                grouping=NamespaceGrouping(depth=1),
            ),
            cache_size=2000,
            marking=ContentMarking(0.3, salt=1),
            seed=seed,
        )  # fmt: skip
        for seed in range(4)
    ]
    pool = len(Name._intern_pool)
    stats = run_replay_sweep(specs, trace_config=CONFIG, workers=1)
    n_names = parallel._load_trace(entry).n_names
    assert all(s.disguised_hits > 0 for s in stats)
    assert counts["requests"] == 0
    # Every spec's kernel walks the names to group them; a per-spec
    # rebuild would make 4 x n_names.
    assert 0 < counts["names"] <= n_names
    assert len(Name._intern_pool) == pool
