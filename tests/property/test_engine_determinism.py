"""Property-based determinism tests: same seed, same universe."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.ndn.link import GaussianJitterDelay, LogNormalDelay
from repro.ndn.network import Network
from repro.sim.process import Timeout
from repro.sim.rng import RngRegistry


def run_universe(seed: int, loss: float, n_objects: int):
    """A small stochastic scenario; returns its full observable outcome."""
    net = Network(rng=RngRegistry(seed))
    router = net.add_router("R", capacity=max(2, n_objects // 2))
    consumer = net.add_consumer("c")
    net.add_producer("p", "/data")
    net.connect("c", "R", GaussianJitterDelay(1.5, 0.2), loss_rate=loss)
    net.connect("R", "p", LogNormalDelay(2.0, 0.5))
    net.add_route("R", "/data", "p")
    rtts = []

    def proc():
        for i in range(n_objects):
            result = yield from consumer.fetch(f"/data/o{i % 7}", timeout=80.0)
            rtts.append(round(result.rtt, 9) if result else None)
            yield Timeout(3.0)

    net.spawn(proc(), "driver")
    end = net.run()
    return (
        tuple(rtts),
        end,
        router.monitor.counter("cs_hit"),
        router.cs.evictions,
        net.engine.events_processed,
    )


@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([0.0, 0.1, 0.3]),
    st.integers(min_value=1, max_value=25),
)
@settings(max_examples=25, deadline=None)
def test_identical_seeds_identical_universes(seed, loss, n_objects):
    assert run_universe(seed, loss, n_objects) == run_universe(
        seed, loss, n_objects
    )


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_different_seeds_differ_somewhere(seed):
    # With jittery links two seeds virtually never produce identical RTTs.
    a = run_universe(seed, 0.0, 10)
    b = run_universe(seed + 1, 0.0, 10)
    assert a[0] != b[0]


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=20, deadline=None)
def test_replay_determinism(seed):
    from repro.core.schemes.registry import SchemeSpec
    from repro.workload.ircache import small_test_trace
    from repro.workload.marking import ContentMarking
    from repro.workload.replay import replay

    trace = small_test_trace(requests=400, seed=seed)

    def run():
        return replay(
            trace,
            scheme=SchemeSpec("uniform", {"k": 3, "delta": 0.1}).build(),
            marking=ContentMarking(0.3, salt=seed),
            cache_size=40,
            seed=seed,
        )

    a, b = run(), run()
    assert (a.hits, a.disguised_hits, a.misses, a.evictions) == (
        b.hits, b.disguised_hits, b.misses, b.evictions
    )
