"""Batch kernel vs reference engine: parity and fallback transparency."""

from __future__ import annotations

import re
from collections import Counter

import pytest

from repro.ndn.link import FixedDelay, GaussianJitterDelay, LogNormalDelay
from repro.ndn.network import Network
from repro.perf.simcore import build_star, build_tree, simcore_scripts
from repro.sim.batch import (
    BatchCompileError,
    ConsumerScript,
    FetchStep,
    NetworkSpentError,
    SleepStep,
    compile_topology,
    diff_observables,
    run_compiled,
    run_scripts,
    run_scripts_batch,
    run_scripts_reference,
)
from repro.sim.batch import kernel
from repro.sim.rng import RngRegistry


def small_star(seed=0, loss_rate=0.0, consumers=3, capacity=4, fixed_delays=False):
    """Consumers C0.. - R - P.  ``fixed_delays`` makes every link a
    FixedDelay (2 ms access, 1 ms upstream): a miss takes exactly 6 ms, a
    hit 4 ms, and equal-timestamp ties are broken only by ``seq``."""
    net = Network(rng=RngRegistry(seed))
    net.add_router("R", capacity=capacity)
    net.add_producer("P", "/content")
    net.connect(
        "R",
        "P",
        FixedDelay(1.0)
        if fixed_delays
        else LogNormalDelay(base=1.0, tail_scale=0.7, sigma=0.8),
        loss_rate=loss_rate,
    )
    net.add_route("R", "/content", "P")
    names = []
    for j in range(consumers):
        name = f"C{j}"
        net.add_consumer(name)
        net.connect(
            name,
            "R",
            FixedDelay(2.0)
            if fixed_delays
            else GaussianJitterDelay(base=1.8, jitter_std=0.12, floor=1.5),
        )
        names.append(name)
    return net, names


def star_scripts(names, requests=12, universe=6, timeout=4000.0):
    return [
        ConsumerScript(
            consumer=name,
            steps=tuple(
                FetchStep(
                    f"/content/obj-{(i * 3 + j) % universe}",
                    timeout=timeout,
                    private=((i + j) % 3 == 0),
                )
                for i in range(requests)
            )
            + (SleepStep(1.5),),
        )
        for j, name in enumerate(names)
    ]


def test_star_parity_bit_identical():
    net, names = small_star()
    oracle = run_scripts_reference(net, star_scripts(names))
    net, names = small_star()
    batch = run_scripts_batch(net, star_scripts(names))
    assert batch.kernel == "batch"
    assert oracle.kernel == "reference"
    assert diff_observables(oracle, batch) == []
    assert batch.total_delivered == 3 * 12
    assert batch.end_time == oracle.end_time  # full float precision


def test_tree_parity_with_timeouts_and_retransmission():
    def build():
        net = Network(rng=RngRegistry(3))
        net.add_producer("P", "/content", processing_delay=0.4)
        net.add_router("R0", capacity=3, processing_delay=0.2)
        net.connect("R0", "P", FixedDelay(1.0))
        net.add_route("R0", "/content", "P")
        names = []
        for a in range(2):
            leaf = f"R1-{a}"
            net.add_router(leaf, capacity=3)
            net.connect(leaf, "R0", FixedDelay(0.5))
            net.add_route(leaf, "/content", "R0")
            for c in range(2):
                name = f"C{a}{c}"
                net.add_consumer(name)
                net.connect(name, leaf, FixedDelay(0.3))
                names.append(name)
        # A 2.4 ms budget is below the >=5.2 ms first-fetch RTT: every
        # consumer times out and refetches, exercising PIT expiry and
        # the in-PIT retransmission path on both engines.
        return net, star_scripts(names, requests=10, universe=5, timeout=2.4)

    net, scripts = build()
    oracle = run_scripts_reference(net, scripts)
    net, scripts = build()
    batch = run_scripts_batch(net, scripts)
    assert diff_observables(oracle, batch) == []
    # Timed-out fetches leave gaps, and the refetch collapses onto the
    # still-pending PIT entry — the race both engines must break alike.
    assert oracle.total_delivered < 4 * 10
    assert oracle.router_counters["R0"].get("pit_collapse", 0) > 0


def test_auto_falls_back_transparently_on_lossy_link():
    net, names = small_star(loss_rate=0.1)
    scripts = star_scripts(names, requests=4)
    obs = run_scripts(net, scripts, kernel="auto")
    # The unsupported combination silently takes the oracle path, and
    # the observables say so rather than pretending it was batched.
    assert obs.kernel == "reference"
    assert obs.total_delivered > 0


def test_batch_kernel_raises_on_unsupported_topology():
    net, names = small_star(loss_rate=0.1)
    scripts = star_scripts(names, requests=4)
    with pytest.raises(BatchCompileError, match="loss"):
        run_scripts_batch(net, scripts)


def test_unsupported_topology_is_refused_before_any_per_name_work():
    # Both a lossy link and a vocabulary that is not prefix-free: the
    # per-link check must win, because it costs nothing per name.
    net, names = small_star(loss_rate=0.1)
    scripts = [
        ConsumerScript(
            names[0], (FetchStep("/content/a"), FetchStep("/content/a/b"))
        )
    ]
    with pytest.raises(BatchCompileError, match="loss"):
        run_scripts_batch(net, scripts)
    net, names = small_star()
    scripts = [ConsumerScript(names[0], scripts[0].steps)]
    with pytest.raises(BatchCompileError, match="prefix-free"):
        run_scripts_batch(net, scripts)


def pass_through_chain(cache_filter):
    """C - A (cache_filter) - R - P."""
    net = Network(rng=RngRegistry(3))
    net.add_router("A", capacity=4).cache_filter = cache_filter
    net.add_router("R", capacity=4)
    net.add_producer("P", "/content")
    net.add_consumer("C")
    net.connect("C", "A", GaussianJitterDelay(base=1.8, jitter_std=0.12, floor=1.5))
    net.connect("A", "R", LogNormalDelay(base=1.0, tail_scale=0.7, sigma=0.8))
    net.connect("R", "P", FixedDelay(0.5))
    net.add_route_chain("/content", "A", "R", "P")
    return net, star_scripts(["C"], requests=8, universe=4)


def test_never_cache_filter_lowers_and_counts_skips():
    from repro.ndn.forwarder import never_cache

    oracle = run_scripts_reference(*pass_through_chain(never_cache))
    batch = run_scripts(*pass_through_chain(never_cache))
    assert batch.kernel == "batch" and batch.fallback_reason is None
    assert diff_observables(oracle, batch) == []
    # Nothing sticks at A, so all 8 fetches reach R: 4 distinct objects
    # are cached there once, and every returning data is skipped at A.
    assert batch.router_counters["A"]["cache_skipped"] == 8
    assert "cs_insert" not in batch.router_counters["A"]
    assert batch.router_counters["R"]["cs_insert"] == 4


def test_any_other_cache_filter_rides_the_fallback_with_its_reason():
    with pytest.raises(BatchCompileError, match="never_cache"):
        run_scripts_batch(*pass_through_chain(lambda data: False))
    observed = run_scripts(*pass_through_chain(lambda data: False))
    assert observed.kernel == "reference"
    assert "cache filters" in observed.fallback_reason
    assert observed.engine == f"reference: {observed.fallback_reason}"
    # Same verdicts as never_cache, so the numbers agree across engines.
    from repro.ndn.forwarder import never_cache

    assert diff_observables(observed, run_scripts(*pass_through_chain(never_cache))) == []


def test_shared_scheme_instance_is_rejected():
    from repro.core.schemes.uniform import UniformRandomCache
    import numpy as np

    shared = UniformRandomCache(K=4, rng=np.random.default_rng(0))
    net = Network(rng=RngRegistry(0))
    net.add_router("R0", capacity=4, scheme=shared)
    net.add_router("R1", capacity=4, scheme=shared)
    net.add_producer("P", "/content")
    net.add_consumer("C")
    net.connect("C", "R0", FixedDelay(0.5))
    net.connect("R0", "R1", FixedDelay(0.5))
    net.connect("R1", "P", FixedDelay(0.5))
    net.add_route("R0", "/content", "R1")
    net.add_route("R1", "/content", "P")
    scripts = [ConsumerScript("C", (FetchStep("/content/obj-0"),))]
    with pytest.raises(BatchCompileError, match="shared"):
        run_scripts_batch(net, scripts)
    # ... and the auto path still runs it on the reference engine.
    net_obs = run_scripts(net, scripts, kernel="auto")
    assert net_obs.kernel == "reference"
    assert net_obs.total_delivered == 1


def _two_guarded_routers(scheme_rngs, caching=None):
    """C - R0 - R1 - P, one UniformRandomCache per router on the given
    generators, every fetch private: each object is asked for three times
    in a row and comes round again after R0, but not R1, has evicted it."""
    from repro.core.schemes.uniform import UniformRandomCache

    net = Network(rng=RngRegistry(0))
    for name, rng in zip(("R0", "R1"), scheme_rngs):
        net.add_router(
            name, capacity=2 if name == "R0" else 4, scheme=UniformRandomCache(K=4, rng=rng),
            caching=caching(rng) if caching is not None and name == "R1" else None,
        )
    net.add_producer("P", "/content")
    net.add_consumer("C")
    net.connect("C", "R0", FixedDelay(0.5))
    net.connect("R0", "R1", FixedDelay(0.5))
    net.connect("R1", "P", FixedDelay(0.5))
    net.add_route_chain("/content", "R0", "R1", "P")
    steps = tuple(
        FetchStep(f"/content/obj-{(i // 3) % 4}", private=True) for i in range(60)
    )
    return net, [ConsumerScript("C", steps)]


def test_schemes_on_one_generator_ride_the_reference_engine():
    """A kernel draws k_C in blocks, so it must own its generator: two
    schemes (or a scheme and a randomized strategy) on one stream are
    refused by the compiler, and ``auto`` stays reference-equal."""
    import numpy as np

    from repro.ndn.strategy import BernoulliStrategy

    def own():
        return [np.random.default_rng(3), np.random.default_rng(3)]

    def one():
        return [np.random.default_rng(3)] * 2

    def bernoulli(rng):
        return BernoulliStrategy(rng, p=0.5)

    assert run_scripts(*_two_guarded_routers(own())).kernel == "batch"
    for rngs, caching, both in (
        (one, None, "R0's scheme and R1's scheme"),
        (own, bernoulli, "R1's scheme and R1's policy/strategy"),
    ):
        with pytest.raises(BatchCompileError, match=both + " share one random"):
            run_scripts_batch(*_two_guarded_routers(rngs(), caching))
        oracle = run_scripts_reference(*_two_guarded_routers(rngs(), caching))
        observed = run_scripts(*_two_guarded_routers(rngs(), caching), kernel="auto")
        assert observed.kernel == "reference"
        assert "share one random generator" in observed.fallback_reason
        assert diff_observables(oracle, observed) == []
        assert sum(
            c.get("cs_disguised_hit", 0) for c in oracle.router_counters.values()
        ) > 0


def test_a_network_the_batch_kernel_ran_is_spent_for_every_entry_point():
    """The kernel never advances ``net.engine`` but consumes the network's
    generators: a second run would replay from empty caches on used
    streams, so compile, every ``run_scripts`` kernel and the reference
    engine refuse the network, ``auto`` included (no fallback)."""
    net, names = small_star()
    scripts = star_scripts(names)
    assert run_scripts(net, scripts).kernel == "batch"
    assert not issubclass(NetworkSpentError, BatchCompileError)
    with pytest.raises(NetworkSpentError, match="batch kernel"):
        compile_topology(net, scripts)
    with pytest.raises(NetworkSpentError):
        run_scripts_reference(net, scripts)
    for kernel in ("auto", "batch", "reference"):
        with pytest.raises(NetworkSpentError):
            run_scripts(net, scripts, kernel=kernel)
    # One compiled topology runs once, too.
    net, names = small_star()
    compiled = compile_topology(net, star_scripts(names))
    run_compiled(compiled)
    with pytest.raises(NetworkSpentError):
        run_compiled(compiled)


def test_a_network_the_reference_engine_ran_continues_or_falls_back():
    """Reference-then-reference is a continuation (caches stay warm,
    counters accumulate); reference-then-auto falls back to the same
    continuation because the engine is no longer fresh."""
    net, names = small_star()
    first = run_scripts_reference(net, star_scripts(names))
    again = run_scripts_reference(net, star_scripts(names))
    assert first.router_counters["R"]["interest_in"] == 36
    assert again.router_counters["R"]["interest_in"] == 72
    assert again.router_counters["R"]["cs_hit"] == 32
    assert [again.link_packets[f"{name}<->R"] for name in names] == [48] * 3
    net, names = small_star()
    run_scripts_reference(net, star_scripts(names))
    observed = run_scripts(net, star_scripts(names), kernel="auto")
    assert observed.kernel == "reference"
    assert "engine already ran" in observed.fallback_reason
    assert diff_observables(again, observed) == []


def test_unknown_kernel_name_rejected():
    net, names = small_star()
    with pytest.raises(ValueError, match="unknown kernel"):
        run_scripts(net, star_scripts(names, requests=1), kernel="vector")


def test_simcore_batch_matches_reference_counts():
    """The pinned sim-core golden: both engines at the default scale."""
    for build, requests, expected in (
        (build_star, 200, (6528, 6592, 3200, 2960)),
        (build_tree, 150, (2848, 3072, 1200, 1113)),
    ):
        observed = {}
        for kernel in ("reference", "batch"):
            net, names, universe = build()
            scripts = simcore_scripts(names, requests, universe)
            observed[kernel] = obs = run_scripts(net, scripts, kernel=kernel)
            assert obs.kernel == kernel
            assert (
                obs.total_hops,
                obs.events_processed,
                obs.total_delivered,
                obs.total_cache_hits,
            ) == expected
        assert diff_observables(observed["reference"], observed["batch"]) == []


def test_constant_duration_timers_never_enter_the_heap(monkeypatch):
    """Every fetch timeout and PIT expiry of the star workload has the
    default 4 000 ms duration, so each is armed after the lane's tail and
    rides the timer lane: the heap holds only packets and forwards."""
    pushed = Counter()
    heappush = kernel.heappush

    def counting(q, item):
        pushed[item[2]] += 1
        heappush(q, item)

    monkeypatch.setattr(kernel, "heappush", counting)
    net, names, universe = build_star()
    batch = run_scripts_batch(net, simcore_scripts(names, 200, universe))
    monkeypatch.undo()
    net, names, universe = build_star()
    oracle = run_scripts_reference(net, simcore_scripts(names, 200, universe))
    assert diff_observables(oracle, batch) == []

    router = batch.router_counters["R"]
    forwards = router["interest_forwarded"] + router.get("interest_retransmitted", 0)
    # The star serves at zero processing delay: every send is a link
    # delivery, none is a scheduled send.
    assert pushed[kernel.K_SD] == 0
    assert sum(pushed.values()) == sum(batch.link_packets.values()) + forwards
    assert pushed[kernel.K_TO] == pushed[kernel.K_PIT] == 0


@pytest.mark.parametrize(
    "step, reason",
    [
        (SleepStep(-1.0), "negative sleep"),
        (SleepStep(float("nan")), "negative sleep"),
        (FetchStep("/content/obj-0", timeout=0.0), "fetch timeout must be positive"),
        (FetchStep("/content/obj-0", timeout=None), "fetch timeout must be positive"),
        (FetchStep("/content/obj-0", lifetime=0.0), "lifetime must be positive"),
    ],
)
def test_invalid_step_is_refused_with_its_reason(step, reason):
    net, _ = small_star()
    script = ConsumerScript(consumer="C0", steps=(FetchStep("/content/obj-1"), step))
    with pytest.raises(BatchCompileError, match=re.escape(f"{reason} in 'C0'")):
        compile_topology(net, [script])
