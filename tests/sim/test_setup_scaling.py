"""Packet-path set-up must scale with traffic, not with the catalog.

Count-based (no timing): the batch compiler resolves FIBs once per route
class, and the producer's prefix-miss path compares O(log n) names per
unseen name.  Each test counts the operation whose growth it bounds.
"""

from __future__ import annotations

from math import log2

from repro.ndn.apps.producer import Producer
from repro.ndn.fib import Fib
from repro.ndn.name import Name
from repro.ndn.packets import Interest
from repro.perf.simcore import build_fat_tree_ircache
from repro.sim.batch.compile import compile_topology
from repro.sim.engine import Engine


def test_fat_tree_compile_matches_fibs_once_per_route_class(monkeypatch):
    net, scripts = build_fat_tree_ircache(seed=7)
    routers = list(net.routers.values())
    union = {prefix for router in routers for prefix in router.fib.prefixes}

    calls = 0
    real_lpm = Fib.longest_prefix_match

    def counting_lpm(self, name):
        nonlocal calls
        calls += 1
        return real_lpm(self, name)

    monkeypatch.setattr(Fib, "longest_prefix_match", counting_lpm)
    compiled = compile_topology(net, scripts)

    # A route class, from its definition: the names matching one and the
    # same subset of the union of all routers' FIB prefixes.
    classes = len(
        {
            frozenset(prefix for prefix in union if prefix.is_prefix_of(name))
            for name in compiled.shape.names
        }
    )
    assert len(compiled.shape.names) > 5000  # catalog scale, or the bound is idle
    assert calls <= len(routers) * classes
    for router in routers:
        assert len(router.fib._lpm_cache) <= classes


def test_cl4m_compile_runs_brandes_once_per_network(monkeypatch):
    from repro.ndn import strategy
    from repro.ndn.topology import rocketfuel_isp
    from repro.sim.batch import ConsumerScript, FetchStep

    topo = rocketfuel_isp(seed=7, caching="cl4m")
    assert len(topo.network.routers) == 42
    passes = 0
    real = strategy.brandes_betweenness

    def counting(adjacency):
        nonlocal passes
        passes += 1
        return real(adjacency)

    monkeypatch.setattr(strategy, "brandes_betweenness", counting)
    compiled = compile_topology(
        topo.network, [ConsumerScript("U", (FetchStep("/content/x"),))]
    )
    assert passes == 1
    admitting = sum(router.strategy_param for router in compiled.routers)
    assert 0 < admitting < 42


def test_cl4m_sweep_runs_brandes_once_per_distinct_graph():
    """Betweenness is a pure function of the graph: the 12 CL4M points of
    a placement sweep over four topologies run four Brandes passes, and
    ask for them four times — one ranking per compiled shape, kept by the
    shape for every point rebound to it (the memo is never consulted)."""
    from repro.analysis.placement import SWEEP_SCHEMES, run_placement_sweep
    from repro.ndn import strategy

    strategy._betweenness.cache_clear()
    frontier = run_placement_sweep(
        topologies=("fig3a_lan", "fat_tree", "rocketfuel", "geant"),
        strategies=("cl4m",),
        trials=1,
        targets_per_trial=4,
        seed=3,
    )
    assert len(frontier.points) == 4 * len(SWEEP_SCHEMES) == 12
    info = strategy._betweenness.cache_info()
    assert (info.misses, info.hits) == (4, 0)


class CountingTuple(tuple):
    """Name components that count every ordering comparison made on them
    (``bisect`` and ``sort`` order tuples with ``<``; ``>`` is its
    reflection against a plain tuple)."""

    comparisons = 0

    def __lt__(self, other):
        CountingTuple.comparisons += 1
        return tuple.__lt__(self, other)

    def __gt__(self, other):
        CountingTuple.comparisons += 1
        return tuple.__gt__(self, other)


class _NullFace:
    def send_data(self, data) -> None:
        pass


def test_unseen_names_cost_logarithmic_comparisons_each():
    n = 2000
    producer = Producer(Engine(), prefix="/content")
    face = _NullFace()
    # A fixed scrambled order, so insertions land all over the index.
    interests = [
        Interest(
            name=Name._from_tuple(CountingTuple(("content", f"obj-{(i * 7919) % n}")))
        )
        for i in range(n)
    ]
    CountingTuple.comparisons = 0
    for interest in interests:
        producer.receive_interest(interest, face)
    assert producer.monitor.counter("data_served") == n
    assert len(producer.repo) == n
    # One bisect to look for extensions and one to insert, per name: the
    # re-sort this replaces made n*log2(n) comparisons *per name*.
    assert 0 < CountingTuple.comparisons <= 3 * n * log2(n)
