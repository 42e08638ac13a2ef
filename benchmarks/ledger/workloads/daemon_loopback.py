"""``daemon_loopback`` — the live forwarder over host-loopback UDP.

Real sockets, TLV codec, asyncio queues and the real-time engine: none of
which the other four workloads touch.  One ``ForwarderDaemon`` (uniform
scheme, 4096-entry LRU store) between an ``AsyncConsumer`` and an
``AsyncProducer`` whose 16 384-name catalog is published in set-up, a
fifth of it under ``/bench/private/``.  Loopback, not a real link.

Closed loop: ``W`` worker coroutines in one load-generating process, each
fetching sequentially.  ``hot_w1`` / ``hot_w32`` ask for 64 hot names
(content-store hits); ``miss_w32`` cycles 16 000 cold names through the
4096-entry store, so every fetch goes to the producer.  Hit against miss
splits store-served from forwarded traffic; W=1 against W=32 splits
per-packet cost from queueing.  Admission stays armed but non-binding
(the default 5000/s limiter would cap the hit path).
"""

from __future__ import annotations

import asyncio
import random
import statistics
from time import perf_counter
from typing import Dict, List

from benchmarks.ledger.harness import Samples, Tracer, Workload
from repro.deploy.daemon import DaemonConfig, ForwarderDaemon, make_scheme
from repro.deploy.endpoints import AsyncConsumer, AsyncProducer
from repro.faults.retry import RetryPolicy
from repro.ndn.admission import InterestRateLimit
from repro.ndn.cs import ContentStore
from repro.ndn.forwarder import Forwarder
from repro.ndn.link import Face
from repro.ndn.name import Name
from repro.ndn.packets import Data, Interest
from repro.ndn.pit import Pit
from repro.ndn.replacement import make_policy
from repro.ndn.wire import decode_packet, encode_packet
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry

PREFIX = "/bench"
HOT_NAMES = 64
COLD_NAMES = 16_000
CATALOG = 16_384
PRIVATE_SHARE = 0.2
CS_CAPACITY = 4096
#: (phase, closed-loop workers, fetches per round)
PHASES = (("hot_w1", 1, 1000), ("hot_w32", 32, 2000), ("miss_w32", 32, 1500))
#: Uniform-Random-Cache disguises a private object's first k < K=8 hits;
#: the warm-up asks for every hot name more often than that.
WARMUP_PASSES = 10
#: Loopback fetches take well under a millisecond; a stalled box must
#: not turn into retries that poison the percentiles.
ONE_SHOT = RetryPolicy(retries=0, timeout=5000.0, backoff=1.0)
NON_BINDING = InterestRateLimit(rate=1e6, burst=1e6)
DROP_COUNTERS = {
    "deploy.faces.rx_dropped": "rx_overflow",
    "deploy.faces.tx_dropped": "tx_overflow",
    "deploy.faces.malformed": "malformed_dropped",
}
CS_VERDICTS = ("cs_hit", "cs_disguised_hit", "cs_forced_miss", "cs_miss")


class _CountingFace(Face):
    """A face that goes nowhere: the forwarder timed alone sends into it."""

    def send_interest(self, interest) -> None:
        self.interests_out += 1

    def send_data(self, data) -> None:
        self.data_out += 1

    def send_nack(self, nack) -> None:
        self.nacks_out += 1


def _percentile(ordered: List[float], share: float) -> float:
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


class DaemonLoopback(Workload):
    name = "daemon_loopback"
    end_to_end = ("seq_interests_per_s", "hit_interests_per_s", "miss_interests_per_s")
    per_layer = (
        "ndn.wire.encode_us",
        "ndn.wire.decode_us",
        "ndn.forwarder.hit_us",
        "ndn.forwarder.miss_us",
        "deploy.daemon.loop_residual_share",
        "deploy.daemon.cs_hit_share",
        *DROP_COUNTERS,
        "core.schemes.disguised_share",
        "deploy.endpoints.rtt_p50_ms.hot_w1",
        *(f"deploy.endpoints.rtt_p99_ms.{phase}" for phase, _, _ in PHASES),
    )

    # ------------------------------------------------------------------
    # Set-up: catalog, rig, warm content store
    # ------------------------------------------------------------------
    def setup(self, tr: Tracer, out: Samples) -> None:
        self.rig_up = False
        self.loop = asyncio.new_event_loop()
        rng = random.Random(self.seed)
        # The catalog and the store keep their size under --quick (the
        # hit/miss split depends on their ratio); only fetch counts shrink.
        private = set(rng.sample(range(CATALOG), int(PRIVATE_SHARE * CATALOG)))
        catalog = [
            Name.parse(f"{PREFIX}/private/obj-{i}" if i in private else f"{PREFIX}/obj-{i}")
            for i in range(CATALOG)
        ]
        rng.shuffle(catalog)
        self.catalog = catalog
        self.hot = catalog[:HOT_NAMES]
        # More cold names than the store holds, so the cycle never hits.
        self.cold = catalog[HOT_NAMES : HOT_NAMES + COLD_NAMES]
        self.cold_at = 0
        self.hit_walls: List[float] = []
        self.loop.run_until_complete(self._start_rig())
        self.rig_up = True
        warm = self.hot * WARMUP_PASSES
        self.loop.run_until_complete(self._fetch_all(warm, workers=8))
        self.loop.run_until_complete(self._fetch_all(self._next_cold(64), workers=8))

    async def _start_rig(self) -> None:
        daemon = ForwarderDaemon(
            DaemonConfig(
                name="ledger",
                seed=self.seed,
                scheme="uniform",
                cs_capacity=CS_CAPACITY,
                rate_limit=NON_BINDING,
            )
        )
        await daemon.start()
        consumer_face = await daemon.add_udp_face(label="ledger:consumer")
        producer_face = await daemon.add_udp_face(label="ledger:producer")
        consumer = AsyncConsumer(daemon.engine, name="ledger-user")
        await consumer.attach(peer=consumer_face.local_addr)
        consumer_face.set_peer(consumer.face.local_addr)
        producer = AsyncProducer(
            daemon.engine, prefix=PREFIX, producer_id="ledger-origin", auto_generate=False
        )
        await producer.attach(peer=producer_face.local_addr)
        producer_face.set_peer(producer.face.local_addr)
        daemon.add_route(PREFIX, producer_face.face_id)
        for name in self.catalog:
            producer.publish(name)
        self.daemon, self.consumer, self.producer = daemon, consumer, producer

    def teardown(self) -> None:
        async def close() -> None:
            await self.consumer.close()
            await self.producer.close()
            await self.daemon.stop()

        if self.rig_up:
            self.loop.run_until_complete(close())
        self.loop.close()

    # ------------------------------------------------------------------
    # Load generator
    # ------------------------------------------------------------------
    def _next_cold(self, count: int) -> List[Name]:
        names = [self.cold[(self.cold_at + i) % len(self.cold)] for i in range(count)]
        self.cold_at = (self.cold_at + count) % len(self.cold)
        return names

    async def _fetch_all(self, names: List[Name], workers: int) -> List[float]:
        """Closed loop: ``workers`` coroutines share one queue of names,
        each fetching sequentially.  Returns per-fetch times (s); a fetch
        that fails or returns another name is a failed operation."""
        times = [0.0] * len(names)
        failed = 0
        cursor = 0

        async def worker() -> None:
            nonlocal cursor, failed
            while cursor < len(names):
                at = cursor
                cursor += 1
                start = perf_counter()
                got = await self.consumer.fetch_or_none(names[at], retry=ONE_SHOT)
                times[at] = perf_counter() - start
                if got is None or got.data.name != names[at]:
                    failed += 1

        await asyncio.gather(*(worker() for _ in range(workers)))
        self.checks.ops(len(names), failed, "fetch failed or returned another name")
        return times

    def _faces(self):
        return [*self.daemon.faces.values(), self.consumer.face, self.producer.face]

    # ------------------------------------------------------------------
    def round(self, tr: Tracer, out: Samples) -> None:
        counters = self.daemon.forwarder.monitor.counter
        round_start = {key: counters(key) for key in (*CS_VERDICTS, "interest_in")}
        for phase, workers, fetches in PHASES:
            fetches = max(workers * 2, fetches // self.div)
            if phase == "miss_w32":
                names = self._next_cold(fetches)
                served_by = ("cs_miss",)
            else:
                names = [self.hot[i % HOT_NAMES] for i in range(fetches)]
                served_by = ("cs_hit", "cs_disguised_hit")
            before = {key: counters(key) for key in (*served_by, "interest_in")}
            with tr.span(f"deploy.daemon.{phase}") as span:
                times = self.loop.run_until_complete(self._fetch_all(names, workers))
            self.checks.gate(
                counters("interest_in") - before["interest_in"] == fetches
                and sum(counters(key) - before[key] for key in served_by) == fetches,
                f"{phase}: forwarder did not see {fetches} interests as {served_by}",
            )
            metric = {"hot_w1": "seq", "hot_w32": "hit", "miss_w32": "miss"}[phase]
            out.add(f"{metric}_interests_per_s", fetches / span.net)
            if tr.record:
                times.sort()
                if phase == "hot_w1":
                    out.add(
                        "deploy.endpoints.rtt_p50_ms.hot_w1",
                        statistics.median(times) * 1e3,
                    )
                if phase == "hot_w32":
                    self.hit_walls.append(span.net / fetches)
                out.add(
                    f"deploy.endpoints.rtt_p99_ms.{phase}", _percentile(times, 0.99) * 1e3
                )
        seen = {key: counters(key) - round_start[key] for key in round_start}
        self.checks.gate(
            sum(seen[key] for key in CS_VERDICTS) == seen["interest_in"],
            "cs_hit + cs_miss verdicts do not add up to the interests received",
        )
        drops = {
            metric: sum(getattr(face, attr) for face in self._faces())
            for metric, attr in DROP_COUNTERS.items()
        }
        self.checks.gate(not any(drops.values()), f"face drop counters moved: {drops}")
        if not tr.record:
            return
        for metric, dropped in drops.items():
            out.add(metric, dropped)
        out.add(
            "deploy.daemon.cs_hit_share",
            (seen["cs_hit"] + seen["cs_disguised_hit"]) / seen["interest_in"],
        )
        # Since the rig started, warm-up included: steady state has none.
        hits, disguised = counters("cs_hit"), counters("cs_disguised_hit")
        out.add("core.schemes.disguised_share", disguised / (hits + disguised))

    # ------------------------------------------------------------------
    # Traced run: codec and forwarder alone, over the same names
    # ------------------------------------------------------------------
    def extras(self, tr: Tracer, out: Samples) -> None:
        names = self.hot + self.cold[: CS_CAPACITY]
        repo = self.producer.repo
        packets = [Interest(name=name) for name in names] + [repo[n] for n in names]
        with tr.span("ndn.wire.encode") as span:
            wires = [encode_packet(packet) for packet in packets]
        encode_us = span.net / len(packets) * 1e6
        with tr.span("ndn.wire.decode") as span:
            decoded = [decode_packet(wire) for wire in wires]
        decode_us = span.net / len(packets) * 1e6
        self.checks.gate(
            [p.name for p in decoded] == [p.name for p in packets],
            "codec round trip changed a name",
        )
        out.add("ndn.wire.encode_us", encode_us)
        out.add("ndn.wire.decode_us", decode_us)

        hit_us, miss_us = self._forwarder_alone(tr, repo)
        out.add("ndn.forwarder.hit_us", hit_us)
        out.add("ndn.forwarder.miss_us", miss_us)
        # A hit costs the daemon process one Interest and one Data through
        # the codec at each end, plus the forwarder's hit path; the rest of
        # the phase wall is asyncio, queues and sockets.
        modelled_us = 2 * (encode_us + decode_us) + hit_us
        per_fetch_us = statistics.median(self.hit_walls) * 1e6
        out.add("deploy.daemon.loop_residual_share", 1.0 - modelled_us / per_fetch_us)

    def _forwarder_alone(self, tr: Tracer, repo: Dict[Name, Data]):
        """A ``Forwarder`` configured as the daemon configures its own, on
        the deterministic engine, between two faces that go nowhere."""
        rng = RngRegistry(self.seed)
        engine = Engine()
        forwarder = Forwarder(
            engine=engine,
            name="alone",
            cs=ContentStore(
                capacity=CS_CAPACITY, policy=make_policy("lru", rng.stream("policy"))
            ),
            scheme=make_scheme("uniform", rng.stream("scheme")),
            pit=Pit(capacity=4096, overflow="drop-new"),
            rate_limit=NON_BINDING,
            nack_on_no_route=True,
        )
        down, up = _CountingFace(forwarder), _CountingFace(forwarder)
        forwarder.faces += [down, up]
        forwarder.fib.add_route(Name.parse(PREFIX), up, 0)

        def fetch(name: Name) -> None:
            forwarder.receive_interest(Interest(name=name), down)
            engine.run(until=engine.now)

        def miss(name: Name) -> None:
            fetch(name)
            forwarder.receive_data(repo[name], up)
            engine.run(until=engine.now)

        for name in self.hot:
            miss(name)
        for name in self.hot * WARMUP_PASSES:
            fetch(name)
        rounds = 50
        sent = down.data_out
        with tr.span("ndn.forwarder.hit") as hit:
            for name in self.hot * rounds:
                fetch(name)
        self.checks.gate(
            down.data_out - sent == rounds * len(self.hot),
            "forwarder alone: a hot fetch was not served from the store",
        )
        cold = self.cold[: CS_CAPACITY]
        sent = down.data_out
        with tr.span("ndn.forwarder.miss") as missed:
            for name in cold:
                miss(name)
        self.checks.gate(
            down.data_out - sent == len(cold) and up.interests_out >= len(cold),
            "forwarder alone: a cold fetch was not forwarded and answered",
        )
        return (
            hit.net / (rounds * len(self.hot)) * 1e6,
            missed.net / len(cold) * 1e6,
        )
