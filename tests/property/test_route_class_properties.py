"""Property-based tests: route-class compilation equals per-name routing.

The batch compiler resolves each router's FIB once per *route class*
instead of once per name.  These tests rebuild the per-name table and the
per-name acyclicity verdict the slow way, on random FIBs, and require the
compiled topology to agree.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from hypothesis import given, settings, strategies as st

from repro.ndn.link import FixedDelay
from repro.ndn.name import Name
from repro.ndn.network import Network
from repro.sim.batch import BatchCompileError, ConsumerScript, FetchStep
from repro.sim.batch.compile import compile_topology
from repro.sim.rng import RngRegistry

#: FIB prefixes mix stem and leaf components, so they can be nested,
#: overlapping, disjoint, the root, or a whole workload name.
prefix_st = st.lists(
    st.sampled_from(["a", "b", "o0", "o1"]), min_size=0, max_size=3
).map(tuple)
#: Workload names are a stem over {a, b} plus one leaf: no name is a
#: prefix of another, so the vocabulary always passes the compiler.
name_st = st.tuples(
    st.lists(st.sampled_from(["a", "b"]), min_size=0, max_size=3),
    st.sampled_from(["o0", "o1", "o2", "o3"]),
).map(lambda pair: (*pair[0], pair[1]))
#: (router, prefix, next hop, cost); a next hop equal to the router means
#: "toward the producer" (only R0 has that link).
route_st = st.tuples(
    st.integers(0, 3), prefix_st, st.integers(0, 3), st.integers(0, 2)
)


def build(n_routers: int, routes) -> Network:
    """A full mesh of routers, producer behind R0, consumer at the last."""
    net = Network(rng=RngRegistry(0))
    for i in range(n_routers):
        net.add_router(f"R{i}", capacity=4)
    net.add_producer("P", "/")
    net.add_consumer("C")
    net.connect("R0", "P", FixedDelay(1.0))
    net.connect("C", f"R{n_routers - 1}", FixedDelay(1.0))
    for i in range(n_routers):
        for j in range(i + 1, n_routers):
            net.connect(f"R{i}", f"R{j}", FixedDelay(1.0))
    for router, prefix, toward, cost in routes:
        router %= n_routers
        toward %= n_routers
        if toward == router:
            if router != 0:
                continue
            target = "P"
        else:
            target = f"R{toward}"
        net.add_route(f"R{router}", Name(prefix), target, cost)
    return net


def per_name_tables(
    net: Network, names: List[Name]
) -> Tuple[List[List[Tuple[int, ...]]], Dict[int, object]]:
    """``tables[router][name]``: send-edge ids from one
    ``longest_prefix_match`` per router x name, plus edge -> receiver."""
    edge_of_face: Dict[int, int] = {}
    receiver: Dict[int, object] = {}
    for i, link in enumerate(net.links.values()):
        edge_of_face[id(link.face_a)] = 2 * i
        edge_of_face[id(link.face_b)] = 2 * i + 1
        receiver[2 * i] = link.face_b.owner
        receiver[2 * i + 1] = link.face_a.owner
    tables = [
        [
            tuple(
                edge_of_face[id(hop.face)]
                for hop in router.fib.longest_prefix_match(name) or ()
            )
            for name in names
        ]
        for router in net.routers.values()
    ]
    return tables, receiver


def has_cycle(successors: List[List[int]]) -> bool:
    """Kahn: a digraph is acyclic iff repeatedly deleting the nodes with
    no incoming edge deletes every node."""
    indegree = [0] * len(successors)
    for succ in successors:
        for node in succ:
            indegree[node] += 1
    ready = [node for node, degree in enumerate(indegree) if degree == 0]
    removed = 0
    while ready:
        node = ready.pop()
        removed += 1
        for nxt in successors[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    return removed < len(successors)


@given(
    st.integers(1, 4),
    st.lists(route_st, max_size=14),
    st.lists(name_st, min_size=1, max_size=12),
)
@settings(max_examples=200, deadline=None)
def test_route_classes_equal_per_name_routing(n_routers, routes, vocabulary):
    net = build(n_routers, routes)
    scripts = [
        ConsumerScript("C", tuple(FetchStep("/" + "/".join(n)) for n in vocabulary))
    ]
    names = list(dict.fromkeys(Name(n) for n in vocabulary))
    tables, receiver = per_name_tables(net, names)
    routers = list(net.routers.values())
    index = {id(router): i for i, router in enumerate(routers)}
    cyclic = any(
        has_cycle(
            [
                [
                    index[id(receiver[edge])]
                    for edge in tables[r][nid]
                    if id(receiver[edge]) in index
                ]
                for r in range(len(routers))
            ]
        )
        for nid in range(len(names))
    )

    try:
        compiled = compile_topology(build(n_routers, routes), scripts)
    except BatchCompileError as error:
        assert "cycle" in str(error)
        assert cyclic
        return
    assert not cyclic
    assert compiled.names == names
    assert [router.next_hops for router in compiled.routers] == tables
