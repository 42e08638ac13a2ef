"""``replay_stream`` — one long stream: generate → shard → verify → replay.

Generation, shard I/O and the ``_ReplayCore`` kernel each do most of the
work in one stage; the cost of a scheme plus its marking rule is the
difference between the cases.  Sizes are BENCH_streaming's 12M-request
shape scaled to 240k requests a round (users, objects, sites and cache
in proportion), eight shards.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Optional

from benchmarks.ledger.harness import Samples, Tracer, Workload
from repro.perf.parallel import build_scheme
from repro.workload.fast_replay import fast_replay
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator
from repro.workload.marking import ContentMarking, RequestMarking
from repro.workload.replay import replay
from repro.workload.sharded import ShardIntegrityError, compile_stream

REQUESTS = 240_000
ORACLE_REQUESTS = 50_000
SHARDS = 8
MARK_FRACTION = 0.2

#: (case, scheme, replacement policy, marking kind)
CASES = (
    ("uniform_lru", "uniform", "lru", "content"),
    ("exponential_lfu", "exponential", "lfu", "request"),
    ("noprivacy_lru", "no-privacy", "lru", None),
)


def _config(requests: int, seed: int) -> IrcacheConfig:
    return IrcacheConfig(
        requests=requests,
        users=max(8, requests * 83 // 1000),
        objects=max(64, requests // 8),
        sites=max(8, requests // 250),
        session_locality=0.3,
        seed=seed,
    )


class ReplayStream(Workload):
    name = "replay_stream"
    end_to_end = ("build_requests_per_s", "replay_requests_per_s")
    per_layer = (
        "workload.ircache.generate_requests_per_s",
        "workload.sharded.compile_self_s",
        "workload.sharded.verify_s",
        "workload.sharded.shards",
        "workload.sharded.bytes_written",
        *(f"workload.fast_replay.{case}_requests_per_s" for case, *_ in CASES),
        *(
            f"workload.fast_replay.{count}.{case}"
            for case, *_ in CASES
            for count in ("hits", "disguised_hits", "misses")
        ),
        "core.schemes.overhead_share",
        "workload.replay.oracle_requests_per_s",
    )

    def setup(self, tr: Tracer, out: Samples) -> None:
        self.config = _config(REQUESTS // self.div, self.seed)
        # Warm-up: the whole pipeline once at an eighth of a round.
        self._pipeline(_config(self.config.requests // 8, self.seed), tr, None)

    def round(self, tr: Tracer, out: Samples) -> None:
        self._pipeline(self.config, tr, out)

    def _marking(self, kind: Optional[str]):
        if kind == "content":
            return ContentMarking(MARK_FRACTION, salt=self.seed)
        if kind == "request":
            return RequestMarking(MARK_FRACTION, seed=self.seed)
        return None

    def _replay(self, engine, workload, config, scheme, policy, marking):
        # Schemes and marking rules are RNG-stateful: fresh ones per call.
        return engine(
            workload,
            scheme=build_scheme(scheme, seed=self.seed),
            marking=self._marking(marking),
            cache_size=max(16, config.requests // 125),
            policy=policy,
            seed=self.seed,
        )

    def _compile(self, config: IrcacheConfig, shard_dir: Path):
        return compile_stream(
            IrcacheGenerator(config).stream(),
            shard_dir,
            shard_size=-(-config.requests // SHARDS),
        )

    def _pipeline(
        self, config: IrcacheConfig, tr: Tracer, out: Optional[Samples]
    ) -> None:
        requests = config.requests
        generate_wall = 0.0
        if tr.record:
            with tr.span("workload.ircache.generate") as span:
                drained = sum(
                    len(block)
                    for block in IrcacheGenerator(config).stream().iter_blocks()
                )
            generate_wall = span.net
            self.checks.gate(drained == requests, "stream drained short")
        shard_dir = self.tmp / "shards"
        shutil.rmtree(shard_dir, ignore_errors=True)  # last round's
        with tr.span("workload.sharded.compile_stream") as compiled:
            sharded = self._compile(config, shard_dir)
        with tr.span("workload.sharded.verify") as verified:
            try:
                sharded.verify()
                intact = True
            except ShardIntegrityError:
                intact = False
        self.checks.op(intact, "ShardedCompiledTrace.verify() failed")

        walls = {}
        stats = {}
        for case, scheme, policy, marking in CASES:
            with tr.span(f"workload.fast_replay.{case}") as span:
                stats[case] = self._replay(
                    fast_replay, sharded, config, scheme, policy, marking
                )
            walls[case] = span.net
            s = stats[case]
            self.checks.op(
                s.requests == requests
                and s.hits + s.disguised_hits + s.misses == requests,
                f"{case}: ReplayStats do not account for every request",
            )
        if out is None:
            return
        out.add("build_requests_per_s", requests / (compiled.net + verified.net))
        out.add("replay_requests_per_s", len(CASES) * requests / sum(walls.values()))
        if not tr.record:
            return
        out.add("workload.ircache.generate_requests_per_s", requests / generate_wall)
        out.add("workload.sharded.compile_self_s", compiled.net - generate_wall)
        out.add("workload.sharded.verify_s", verified.net)
        out.add("workload.sharded.shards", sharded.n_shards)
        out.add(
            "workload.sharded.bytes_written",
            sum(f.stat().st_size for f in shard_dir.iterdir() if f.is_file()),
        )
        for case, *_ in CASES:
            out.add(
                f"workload.fast_replay.{case}_requests_per_s",
                requests / walls[case],
            )
            out.add(f"workload.fast_replay.hits.{case}", stats[case].hits)
            out.add(
                f"workload.fast_replay.disguised_hits.{case}",
                stats[case].disguised_hits,
            )
            out.add(f"workload.fast_replay.misses.{case}", stats[case].misses)
        out.add(
            "core.schemes.overhead_share",
            1.0 - walls["noprivacy_lru"] / walls["uniform_lru"],
        )

    def extras(self, tr: Tracer, out: Samples) -> None:
        """The oracle's price, and the oracle-vs-sharded bit-identity gate."""
        config = _config(ORACLE_REQUESTS // self.div, self.seed)
        with tr.span("workload.ircache.materialize"):
            trace = IrcacheGenerator(config).generate()
        with tr.span("workload.sharded.compile_stream"):
            sharded = self._compile(config, self.tmp / "oracle-shards")
        oracle_wall = 0.0
        for case, scheme, policy, marking in CASES:
            with tr.span(f"workload.replay.oracle.{case}") as span:
                expected = self._replay(replay, trace, config, scheme, policy, marking)
            oracle_wall += span.net
            with tr.span(f"workload.fast_replay.{case}"):
                got = self._replay(
                    fast_replay, sharded, config, scheme, policy, marking
                )
            self.checks.op(
                got == expected,
                f"{case}: sharded fast_replay differs from oracle replay()",
            )
        out.add(
            "workload.replay.oracle_requests_per_s",
            len(CASES) * config.requests / oracle_wall,
        )
