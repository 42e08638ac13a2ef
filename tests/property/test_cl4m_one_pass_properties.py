"""One Brandes pass per network decides what one pass per router did."""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.ndn import strategy as strategy_module
from repro.ndn.link import FixedDelay
from repro.ndn.network import Network
from repro.ndn.strategy import (
    Cl4mStrategy,
    brandes_betweenness,
    discover_graph,
)


def per_router_verdict(router, quantile: float) -> bool:
    """The recomputation the one-pass fill replaces: rank ``router``
    alone, from its own Brandes pass over the graph it discovers."""
    adjacency, nodes = discover_graph(router)
    centrality = brandes_betweenness(adjacency)
    scores = sorted(
        score
        for label, score in centrality.items()
        if getattr(nodes[label], "fib", None) is not None
    )
    index = min(max(math.ceil(quantile * len(scores)) - 1, 0), len(scores) - 1)
    return centrality[router.name] >= scores[index]


@st.composite
def cl4m_networks(draw):
    """A random connected router graph (random tree + extra edges) with
    end hosts hung off it and a per-router CL4M quantile; ``shared``
    routers (none, or two and more) hold one strategy instance."""
    n = draw(st.integers(min_value=1, max_value=9))
    quantiles = draw(
        st.lists(
            st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9, 1.0]),
            min_size=n,
            max_size=n,
        )
    )
    shared = draw(st.sets(st.integers(0, n - 1), max_size=n))
    shared = shared if len(shared) > 1 else set()
    shared_instance = Cl4mStrategy(quantile=quantiles[0])
    net = Network()
    for i, quantile in enumerate(quantiles):
        strategy = shared_instance if i in shared else Cl4mStrategy(quantile)
        net.add_router(f"r{i}", caching=strategy)
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    for _ in range(draw(st.integers(0, n))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    for a, b in sorted(edges):
        net.connect(f"r{a}", f"r{b}", FixedDelay(1.0))
    for h in range(draw(st.integers(0, 3))):
        net.add_consumer(f"h{h}")
        net.connect(f"h{h}", f"r{draw(st.integers(0, n - 1))}", FixedDelay(1.0))
    first = draw(st.integers(0, n - 1))
    return net, quantiles, first, shared


@settings(max_examples=80, deadline=None)
@given(cl4m_networks())
def test_one_pass_verdicts_equal_per_router_recomputation(case):
    net, quantiles, first, shared = case
    expected = {
        f"r{i}": per_router_verdict(net[f"r{i}"], quantile)
        for i, quantile in enumerate(quantiles)
        if i not in shared
    }
    # A shared instance answers for all its routers with the verdict of
    # the first of them that asks (``first``, then r0, r1, ... below).
    first_sharer = first if first in shared else min(shared, default=None)
    for i in shared:
        expected[f"r{i}"] = per_router_verdict(
            net[f"r{first_sharer}"], quantiles[0]
        )
    passes = 0
    real = brandes_betweenness

    def counting(adjacency):
        nonlocal passes
        passes += 1
        return real(adjacency)

    strategy_module.brandes_betweenness = counting
    try:
        # Whichever router decides first resolves the whole network...
        net[f"r{first}"].caching.compute_verdict(net[f"r{first}"])
        verdicts = {
            name: router.caching.compute_verdict(router)
            for name, router in net.routers.items()
        }
        # ... and reset() keeps verdicts: they are topology state.
        for router in net.routers.values():
            router.caching.reset()
            assert router.caching.compute_verdict(router) == verdicts[router.name]
    finally:
        strategy_module.brandes_betweenness = real
    assert verdicts == expected
    # One pass for the network; a shared instance the first asker does
    # not hold is left to its own first asker.
    assert passes == (2 if shared and first not in shared else 1)
