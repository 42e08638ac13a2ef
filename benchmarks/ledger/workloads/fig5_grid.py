"""``fig5_grid`` — the paper's Fig. 5(a)+(b) 48-point grid, warm cache.

The same replay kernel as ``replay_stream`` used differently: many short
replays behind a process pool and an on-disk trace cache, so per-replay,
trace-load and dispatch costs dominate instead of the inner loop.  5(a)
rides the default TSV cache path, 5(b) the sharded one — one number on
each of the two paths ROADMAP item 3 wants to collapse.
"""

from __future__ import annotations

import os

from benchmarks.ledger.harness import Samples, Tracer, Workload
from repro.analysis.experiments import run_fig5a, run_fig5b
from repro.perf.parallel import (
    ENV_TRACE_CACHE,
    ensure_sharded_trace_cached,
    ensure_trace_cached,
    verify_trace_cache,
)
from repro.workload.ircache import IrcacheConfig
from repro.workload.sharded import ShardedCompiledTrace

REQUESTS = 30_000
#: The fig5a series and the fig5b series that are one ReplaySpec up to label.
TWIN_SERIES = ("exponential", "20% private")


class Fig5Grid(Workload):
    name = "fig5_grid"
    pinned = False  # two pool workers, one per CPU
    end_to_end = ("replay_requests_per_s",)
    per_layer = (
        "perf.parallel.tsv_sweep_requests_per_s",
        "perf.parallel.sharded_sweep_requests_per_s",
        "perf.parallel.cache_build_s",
        "perf.parallel.cache_verify_s",
        "perf.parallel.pool_efficiency",
    )

    def setup(self, tr: Tracer, out: Samples) -> None:
        self._saved_cache = os.environ.get(ENV_TRACE_CACHE)
        self.workers = min(2, os.cpu_count() or 1)
        self.config = IrcacheConfig(requests=REQUESTS // self.div, seed=self.seed)
        os.environ[ENV_TRACE_CACHE] = str(self.tmp / "trace-cache")
        with tr.span("perf.parallel.cache_build") as span:
            self.tsv_path = ensure_trace_cached(self.config)
            self.shard_path = ensure_sharded_trace_cached(self.config)
        out.add("perf.parallel.cache_build_s", span.net)
        # Warm-up: one cache size through each path (pool start, page cache).
        with tr.sampling():
            run_fig5a(
                self.config, cache_sizes=(None,), seed=self.seed, workers=self.workers
            )
            run_fig5b(
                self.config, cache_sizes=(None,), private_fractions=(0.2,),
                seed=self.seed, workers=self.workers, sharded=True,
            )  # fmt: skip
        self.tsv_walls = []

    def teardown(self) -> None:
        if self._saved_cache is None:
            os.environ.pop(ENV_TRACE_CACHE, None)
        else:
            os.environ[ENV_TRACE_CACHE] = self._saved_cache

    def round(self, tr: Tracer, out: Samples) -> None:
        requests = self.config.requests
        # The pool's workers do the work: the host's speed is sampled
        # from a thread of this process while it waits for them.
        with tr.span("perf.parallel.tsv_sweep") as tsv, tr.sampling():
            fig5a = run_fig5a(self.config, seed=self.seed, workers=self.workers)
        with tr.span("perf.parallel.sharded_sweep") as sharded, tr.sampling():
            fig5b = run_fig5b(
                self.config, seed=self.seed, workers=self.workers, sharded=True
            )
        points = 0
        for figure in (fig5a, fig5b):
            for stats in figure.stats.values():
                points += 1
                self.checks.op(
                    stats.requests == requests
                    and stats.hits + stats.disguised_hits + stats.misses == requests,
                    "a grid point does not account for every request",
                )
        self.checks.gate(
            all(
                fig5a.stats[(TWIN_SERIES[0], size)] == fig5b.stats[(TWIN_SERIES[1], size)]
                for size in fig5a.cache_sizes
            ),
            "TSV-path and sharded-path ReplayStats differ for the same ReplaySpec",
        )
        out.add("replay_requests_per_s", points * requests / (tsv.net + sharded.net))
        if not tr.record:
            return
        self.tsv_walls.append(tsv.net)
        out.add("perf.parallel.tsv_sweep_requests_per_s", points // 2 * requests / tsv.net)
        out.add(
            "perf.parallel.sharded_sweep_requests_per_s",
            points // 2 * requests / sharded.net,
        )
        with tr.span("perf.parallel.cache_verify") as span:
            intact = verify_trace_cache(self.tsv_path)
            ShardedCompiledTrace.open(self.shard_path).verify()
        self.checks.gate(intact, "TSV trace-cache entry failed its digest")
        out.add("perf.parallel.cache_verify_s", span.net)

    def extras(self, tr: Tracer, out: Samples) -> None:
        """The 24 fig5a specs serially in this process: what the pool buys."""
        with tr.span("perf.parallel.serial_sweep") as span:
            run_fig5a(self.config, seed=self.seed, workers=1)
        tsv_wall = sorted(self.tsv_walls)[len(self.tsv_walls) // 2]
        out.add("perf.parallel.pool_efficiency", span.net / (self.workers * tsv_wall))
