"""The topology registry: every named network the simulator runs on.

:data:`TOPOLOGIES` maps a name to a builder, and every builder takes the
same keywords — ``seed``, ``scheme``, ``cache_capacity``, ``caching``,
``policy``, ``forwarding`` — plus its own shape parameters, so a scenario
is "a registry name and those six settings" wherever it is described (the
Figure 3 campaigns, the placement sweep, the differential grid, the
sim-core workloads).  ``policy``, ``forwarding`` and ``caching`` apply to
every router; an unknown value raises.  ``scheme`` is per-router state: a
:class:`~repro.core.schemes.base.CacheScheme` instance guards the probe
router only, a zero-argument factory is called once per router in
creation order.

Each builder returns an :class:`AttackTopology` wiring the entities of
Figure 1 (user U, shared first-hop router R, producer P, adversary Adv) or
Figure 2 (applications sharing a local ``ccnd`` daemon).  The four
Figure 3 panels have link-delay models calibrated so the *shape* of the
hit/miss RTT distributions matches the corresponding paper subfigure:

* :func:`local_lan` — Fig. 3(a): Fast-Ethernet LAN, wide hit/miss gap,
* :func:`wan` — Fig. 3(b): several hops to R, jittery but separable,
* :func:`wan_producer` — Fig. 3(c): P adjacent to R, U/Adv three WAN hops
  away; the one-link difference drowns in path jitter (weak single probe),
* :func:`local_host` — Fig. 3(d): malicious app probing the node-local
  cache, microsecond-scale hits.

Absolute milliseconds are calibrated, not measured on the NDN testbed the
paper used; EXPERIMENTS.md records the substitution.  Beyond the paper
the registry holds three multi-hop scale graphs (:func:`fat_tree`,
:func:`rocketfuel_isp`, :func:`geant_backbone`), the two sim-core
shapes (:func:`star`, :func:`tree`) and the two attack-harness shapes
(:func:`defense_tree`, :func:`overload_star`, which take bounded PITs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from repro.core.schemes.base import CacheScheme
from repro.ndn.admission import InterestRateLimit
from repro.ndn.apps.consumer import Consumer
from repro.ndn.apps.producer import Producer
from repro.ndn.errors import TopologyError
from repro.ndn.forwarder import Forwarder, never_cache
from repro.ndn.link import FixedDelay, GaussianJitterDelay, LogNormalDelay
from repro.ndn.name import Name
from repro.ndn.network import Network
from repro.ndn.strategy import CachingStrategy
from repro.sim.rng import RngRegistry

#: A caching-strategy spec accepted by every builder: a registered kind
#: string (instantiated per router with its own RNG stream) or ``None``.
CachingSpec = Union[str, CachingStrategy, None]

#: Where a builder puts privacy schemes: one instance (placed
#: on the probe router), a zero-argument factory (called once per router,
#: in creation order) or ``None``.
SchemePlacement = Union[CacheScheme, Callable[[], CacheScheme], None]

#: Default prefix all experiment content lives under.
CONTENT_PREFIX = "/content"


@dataclass
class AttackTopology:
    """A wired attack scenario: Fig. 1 / Fig. 2 plus calibration notes."""

    network: Network
    user: Consumer
    adversary: Consumer
    router: Forwarder
    producer: Producer
    description: str
    #: Routers between Adv/U and R (empty in the LAN/local-host settings).
    access_path: List[Forwarder] = field(default_factory=list)
    #: Routers between R and P (empty when P is adjacent to R).
    producer_path: List[Forwarder] = field(default_factory=list)
    #: The prefix P serves; every registry topology uses the shared one.
    content_prefix: Name = field(
        default_factory=lambda: Name.parse(CONTENT_PREFIX)
    )

    @property
    def engine(self):
        """The topology's simulation engine."""
        return self.network.engine


def place_scheme(
    scheme: SchemePlacement, router: str, probe: str
) -> Optional[CacheScheme]:
    """The scheme :data:`SchemePlacement` gives ``router`` (``probe``
    names the router U and Adv share).

    An instance is per-router state and must not be shared between
    forwarders: it guards the probe point only.  A factory is called
    once per router, so callers ask in router creation order.
    """
    if scheme is None or isinstance(scheme, CacheScheme):
        return scheme if router == probe else None
    return scheme()


def _start(
    seed: int,
    probe: str,
    scheme: SchemePlacement,
    cache_capacity: Optional[int],
    caching: CachingSpec,
    policy: str,
    forwarding: str,
    pit_capacity: Optional[int] = None,
    pit_overflow: str = "drop-new",
    rate_limit: Optional[InterestRateLimit] = None,
):
    """A fresh network plus its ``add_router(name)``.

    Every router of a topology is created through the returned function,
    which is what makes the shared builder keywords mean the same thing
    everywhere: they reach ``Network.add_router`` (which rejects unknown
    values) for each router, and the scheme lands as :data:`SchemePlacement`
    says.  ``probe`` names the router U and Adv share.  A builder may
    override one router's ``capacity`` or ``rate_limit``, or give it a
    ``processing_delay``.
    """
    net = Network(rng=RngRegistry(seed))

    def add_router(
        name: str,
        capacity: Optional[int] = cache_capacity,
        processing_delay: float = 0.0,
        rate_limit: Optional[InterestRateLimit] = rate_limit,
    ) -> Forwarder:
        return net.add_router(
            name,
            capacity=capacity,
            scheme=place_scheme(scheme, name, probe),
            policy=policy,
            processing_delay=processing_delay,
            strategy=forwarding,
            pit_capacity=pit_capacity,
            pit_overflow=pit_overflow,
            rate_limit=rate_limit,
            caching=caching,
        )

    return net, add_router


def local_lan(
    seed: int = 0,
    scheme: SchemePlacement = None,
    cache_capacity: Optional[int] = None,
    caching: CachingSpec = None,
    policy: str = "lru",
    forwarding: str = "best-route",
) -> AttackTopology:
    """Fig. 3(a): U, Adv and R on one Fast-Ethernet segment, P behind R.

    Calibration: hit RTTs ≈ 3.3–4.5 ms, miss RTTs ≈ 6–12 ms with a
    queueing tail — comfortably separable (the paper reports >99.9%
    classification success).
    """
    net, add_router = _start(
        seed, "R", scheme, cache_capacity, caching, policy, forwarding
    )
    router = add_router("R")
    user = net.add_consumer("U")
    adversary = net.add_consumer("Adv")
    producer = net.add_producer("P", CONTENT_PREFIX)
    lan = lambda: GaussianJitterDelay(base=1.8, jitter_std=0.12, floor=1.5)  # noqa: E731
    net.connect("U", "R", lan())
    net.connect("Adv", "R", lan())
    net.connect("R", "P", LogNormalDelay(base=1.0, tail_scale=0.7, sigma=0.8))
    net.add_route("R", CONTENT_PREFIX, "P")
    return AttackTopology(
        network=net,
        user=user,
        adversary=adversary,
        router=router,
        producer=producer,
        description="LAN: U/Adv on Fast Ethernet to shared first-hop router R",
    )


def wan(
    seed: int = 0,
    scheme: SchemePlacement = None,
    cache_capacity: Optional[int] = None,
    caching: CachingSpec = None,
    policy: str = "lru",
    forwarding: str = "best-route",
    producer_hops: int = 3,
) -> AttackTopology:
    """Fig. 3(b): U/Adv several (non-NDN) hops from R; P ``producer_hops``
    NDN hops past R.

    Calibration: hit RTTs ≈ 4.5–7 ms, miss RTTs ≈ 9–22 ms with heavy
    jitter — still separable with ~99% success.
    """
    if producer_hops < 1:
        raise ValueError(f"producer_hops must be >= 1, got {producer_hops}")
    net, add_router = _start(
        seed, "R", scheme, cache_capacity, caching, policy, forwarding
    )
    router = add_router("R")
    user = net.add_consumer("U")
    adversary = net.add_consumer("Adv")
    producer = net.add_producer("P", CONTENT_PREFIX)
    access = lambda: LogNormalDelay(base=2.2, tail_scale=0.35, sigma=0.9)  # noqa: E731
    net.connect("U", "R", access())
    net.connect("Adv", "R", access())
    # Chain R - R1 - ... - P; intermediate routers cache without bound.
    producer_path: List[Forwarder] = []
    chain = ["R"]
    for i in range(1, producer_hops):
        name = f"R{i}"
        producer_path.append(add_router(name, capacity=None))
        chain.append(name)
    chain.append("P")
    wan_link = lambda: LogNormalDelay(base=1.0, tail_scale=0.4, sigma=0.9)  # noqa: E731
    for a, b in zip(chain, chain[1:]):
        net.connect(a, b, wan_link())
    net.add_route_chain(CONTENT_PREFIX, *chain)
    return AttackTopology(
        network=net,
        user=user,
        adversary=adversary,
        router=router,
        producer=producer,
        description=f"WAN: shared first-hop R, producer {producer_hops} hops upstream",
        producer_path=producer_path,
    )


def wan_producer(
    seed: int = 0,
    scheme: SchemePlacement = None,
    cache_capacity: Optional[int] = None,
    caching: CachingSpec = None,
    policy: str = "lru",
    forwarding: str = "best-route",
    access_hops: int = 3,
    cache_on_access_path: bool = False,
) -> AttackTopology:
    """Fig. 3(c): producer privacy.  P adjacent to R; U/Adv ``access_hops``
    WAN hops away.

    The observable difference between "C cached at R" and "C only at P" is
    a single short link inside a long, jittery path, so a single probe
    succeeds only ≈55–65% of the time (the paper measures 59%).

    ``cache_on_access_path=False`` (default) disables caching on the
    routers between Adv and R, isolating R's cache as the only oracle —
    the configuration under which the paper's fetch-twice probe is
    informative (otherwise Adv's own first fetch would be answered by its
    first-hop router on the second probe).
    """
    if access_hops < 1:
        raise ValueError(f"access_hops must be >= 1, got {access_hops}")
    net, add_router = _start(
        seed, "R", scheme, cache_capacity, caching, policy, forwarding
    )
    router = add_router("R")
    user = net.add_consumer("U")
    adversary = net.add_consumer("Adv")
    producer = net.add_producer("P", CONTENT_PREFIX)
    long_haul = lambda: LogNormalDelay(base=30.0, tail_scale=2.5, sigma=0.9)  # noqa: E731

    def build_access_chain(tag: str, consumer_name: str) -> List[Forwarder]:
        chain = [consumer_name]
        routers = []
        for i in range(1, access_hops):
            name = f"{tag}{i}"
            node = add_router(name, capacity=None)
            if not cache_on_access_path:
                node.cache_filter = never_cache
            routers.append(node)
            chain.append(name)
        chain.append("R")
        for a, b in zip(chain, chain[1:]):
            net.connect(a, b, long_haul())
        net.add_route_chain(CONTENT_PREFIX, *chain)
        return routers

    access_path = build_access_chain("A", "Adv")
    access_path += build_access_chain("B", "U")
    net.connect("R", "P", GaussianJitterDelay(base=2.5, jitter_std=0.3, floor=1.8))
    net.add_route("R", CONTENT_PREFIX, "P")
    return AttackTopology(
        network=net,
        user=user,
        adversary=adversary,
        router=router,
        producer=producer,
        description=(
            f"WAN producer privacy: P adjacent to R, U/Adv {access_hops} hops away"
        ),
        access_path=access_path,
    )


def local_host(
    seed: int = 0,
    scheme: SchemePlacement = None,
    cache_capacity: Optional[int] = None,
    caching: CachingSpec = None,
    policy: str = "lru",
    forwarding: str = "best-route",
) -> AttackTopology:
    """Fig. 3(d) / Fig. 2: malicious app probing the node-local cache.

    The honest application and the malicious application share the local
    NDN daemon's (``ccnd``) cache over IPC-speed faces; the producer sits
    across the network.  Calibration: hits ≈ 0.4–0.9 ms, misses ≈ 2–12 ms
    — the cleanest separation of the four settings.
    """
    net, add_router = _start(
        seed, "ccnd", scheme, cache_capacity, caching, policy, forwarding
    )
    daemon = add_router("ccnd")
    honest = net.add_consumer("honest-app")
    malicious = net.add_consumer("malicious-app")
    producer = net.add_producer("P", CONTENT_PREFIX)
    ipc = lambda: GaussianJitterDelay(base=0.22, jitter_std=0.05, floor=0.05)  # noqa: E731
    net.connect("honest-app", "ccnd", ipc())
    net.connect("malicious-app", "ccnd", ipc())
    net.connect("ccnd", "P", LogNormalDelay(base=0.8, tail_scale=0.8, sigma=1.0))
    net.add_route("ccnd", CONTENT_PREFIX, "P")
    return AttackTopology(
        network=net,
        user=honest,
        adversary=malicious,
        router=daemon,
        producer=producer,
        description="Local host: malicious application probing the ccnd cache",
    )


# ----------------------------------------------------------------------
# Scale topologies (beyond Figure 3)
# ----------------------------------------------------------------------
# The paper measures on small Figure-1/2 settings; cache-placement
# strategies (repro.ndn.strategy) only differentiate themselves on
# multi-hop graphs, so these builders provide three standard shapes:
# a k-ary fat tree, a Rocketfuel-like ISP (backbone ring + chords with
# gateway/leaf tiers), and a GEANT-style European backbone.  All three
# install loop-free routes along a deterministic BFS tree toward the
# producer and keep U/Adv on one shared first-hop router (the probe point
# of Figure 1).


def _install_bfs_routes(
    net: Network, root: str, producer_name: str
) -> Dict[str, Optional[str]]:
    """Route ``CONTENT_PREFIX`` on every router toward its BFS parent.

    A router's neighbours are the routers at the far end of its faces, in
    the order ``net.connect`` made them, so the tree (and therefore every
    FIB) is a pure function of the graph construction — no RNG draws.
    The root routes to the producer.  Returns the parent map (root maps
    to ``None``).
    """
    routers = net.routers
    parent: Dict[str, Optional[str]] = {root: None}
    frontier = [root]
    while frontier:
        nxt: List[str] = []
        for node in frontier:
            for face in routers[node].faces:
                neighbor = face.peer.owner
                if isinstance(neighbor, Forwarder) and neighbor.name not in parent:
                    parent[neighbor.name] = node
                    nxt.append(neighbor.name)
        frontier = nxt
    unreached = [name for name in routers if name not in parent]
    if unreached:
        raise TopologyError(
            f"graph is disconnected: {unreached!r} cannot reach {root!r}"
        )
    for node, up in parent.items():
        net.add_route(node, CONTENT_PREFIX, up if up is not None else producer_name)
    return parent


def _path_to_root(parent: Dict[str, Optional[str]], start: str) -> List[str]:
    """Routers strictly between ``start`` and the producer, in hop order
    (the BFS chain from ``start``'s parent up to and including the root)."""
    path: List[str] = []
    node = parent[start]
    while node is not None:
        path.append(node)
        node = parent[node]
    return path


def fat_tree(
    seed: int = 0,
    scheme: SchemePlacement = None,
    cache_capacity: Optional[int] = None,
    caching: CachingSpec = None,
    policy: str = "lru",
    forwarding: str = "best-route",
    k: int = 4,
    hosts_per_edge: int = 2,
) -> AttackTopology:
    """A k-ary fat tree: (k/2)² cores, k pods of k/2 aggregation and k/2
    edge routers, full bipartite wiring inside each pod.

    ``hosts_per_edge`` consumers hang off every edge router; the first
    two on ``edge0-0`` are U and Adv (shared first-hop probe point, as
    in Figure 1).  The producer sits behind ``core0``.  Routes follow
    the BFS tree rooted at ``core0``, so forwarding is loop-free while
    the physical wiring keeps the fat tree's full degree (what degree-
    driven strategies like CL4M key on).
    """
    if k < 2 or k % 2:
        raise TopologyError(f"fat tree arity must be even and >= 2, got {k}")
    if hosts_per_edge < 2:
        raise TopologyError(
            f"need at least U and Adv per edge router, got {hosts_per_edge}"
        )
    half = k // 2
    probe = "edge0-0"
    net, add_router = _start(
        seed, probe, scheme, cache_capacity, caching, policy, forwarding
    )
    cores = [add_router(f"core{i}").name for i in range(half * half)]
    for p in range(k):
        aggs = [add_router(f"agg{p}-{a}").name for a in range(half)]
        edges = [add_router(f"edge{p}-{e}").name for e in range(half)]
        for edge_name in edges:
            for agg_name in aggs:
                net.connect(edge_name, agg_name, FixedDelay(1.0))
        for a, agg_name in enumerate(aggs):
            for c in range(half):
                net.connect(agg_name, cores[a * half + c], FixedDelay(2.0))

    host_delay = lambda: GaussianJitterDelay(base=0.5, jitter_std=0.05, floor=0.3)  # noqa: E731
    user = adversary = None
    for p in range(k):
        for e in range(half):
            for h in range(hosts_per_edge):
                if p == 0 and e == 0 and h == 0:
                    host = "U"
                    user = net.add_consumer(host)
                elif p == 0 and e == 0 and h == 1:
                    host = "Adv"
                    adversary = net.add_consumer(host)
                else:
                    host = f"h{p}-{e}-{h}"
                    net.add_consumer(host)
                net.connect(host, f"edge{p}-{e}", host_delay())

    producer = net.add_producer("P", CONTENT_PREFIX)
    net.connect("core0", "P", LogNormalDelay(base=1.0, tail_scale=0.5, sigma=0.8))
    parent = _install_bfs_routes(net, "core0", "P")
    return AttackTopology(
        network=net,
        user=user,
        adversary=adversary,
        router=net[probe],
        producer=producer,
        description=f"fat tree k={k}: U/Adv under edge0-0, producer behind core0",
        producer_path=[net[name] for name in _path_to_root(parent, probe)],
    )


def rocketfuel_isp(
    seed: int = 0,
    scheme: SchemePlacement = None,
    cache_capacity: Optional[int] = None,
    caching: CachingSpec = None,
    policy: str = "lru",
    forwarding: str = "best-route",
    backbones: int = 6,
    gateways_per_backbone: int = 2,
    leaves_per_gateway: int = 2,
    extra_chords: int = 2,
) -> AttackTopology:
    """A Rocketfuel-like ISP map: backbone ring plus seeded chords, with
    gateway and leaf (access) tiers hanging off it.

    Chord endpoints are drawn from the registry stream
    ``topo:rocketfuel``, so the graph is a pure function of ``seed`` and
    the shape parameters.  U/Adv share the first leaf router ``l0-0-0``;
    the producer sits behind backbone node ``b0``.
    """
    if backbones < 3:
        raise TopologyError(f"need >= 3 backbone nodes, got {backbones}")
    probe = "l0-0-0"
    net, add_router = _start(
        seed, probe, scheme, cache_capacity, caching, policy, forwarding
    )
    core = [add_router(f"b{i}").name for i in range(backbones)]
    backbone_link = lambda: LogNormalDelay(base=2.0, tail_scale=0.4, sigma=0.7)  # noqa: E731
    for i in range(backbones):
        net.connect(core[i], core[(i + 1) % backbones], backbone_link())
    # Seeded chords across the ring (reject self, neighbors, duplicates).
    rng = net.rng.stream("topo:rocketfuel")
    added = 0
    attempts = 0
    while added < extra_chords and attempts < 64 * (extra_chords + 1):
        attempts += 1
        i, j = (int(v) for v in rng.integers(0, backbones, size=2))
        a, b = core[i], core[j]
        if a == b or f"{a}<->{b}" in net.links or f"{b}<->{a}" in net.links:
            continue
        net.connect(a, b, backbone_link())
        added += 1

    access_link = lambda: LogNormalDelay(base=1.2, tail_scale=0.3, sigma=0.6)  # noqa: E731
    for i in range(backbones):
        for g in range(gateways_per_backbone):
            gateway = add_router(f"g{i}-{g}").name
            net.connect(gateway, core[i], access_link())
            for leaf in range(leaves_per_gateway):
                leaf_name = add_router(f"l{i}-{g}-{leaf}").name
                net.connect(leaf_name, gateway, access_link())

    lan = lambda: GaussianJitterDelay(base=1.8, jitter_std=0.12, floor=1.5)  # noqa: E731
    user = net.add_consumer("U")
    adversary = net.add_consumer("Adv")
    net.connect("U", probe, lan())
    net.connect("Adv", probe, lan())
    producer = net.add_producer("P", CONTENT_PREFIX)
    net.connect("b0", "P", GaussianJitterDelay(base=1.0, jitter_std=0.1, floor=0.8))
    parent = _install_bfs_routes(net, "b0", "P")
    return AttackTopology(
        network=net,
        user=user,
        adversary=adversary,
        router=net[probe],
        producer=producer,
        description=(
            f"Rocketfuel-like ISP: {backbones}-node backbone ring + "
            f"{added} chords, U/Adv on leaf {probe}, producer behind b0"
        ),
        producer_path=[net[name] for name in _path_to_root(parent, probe)],
    )


#: GEANT-style European backbone adjacency (12 cities, research-network
#: shaped; a fixed map, not a measured snapshot).
_GEANT_EDGES = (
    ("london", "dublin"),
    ("london", "paris"),
    ("london", "amsterdam"),
    ("paris", "madrid"),
    ("paris", "geneva"),
    ("paris", "frankfurt"),
    ("amsterdam", "frankfurt"),
    ("amsterdam", "copenhagen"),
    ("frankfurt", "geneva"),
    ("frankfurt", "vienna"),
    ("frankfurt", "copenhagen"),
    ("geneva", "milan"),
    ("madrid", "milan"),
    ("milan", "vienna"),
    ("vienna", "budapest"),
    ("copenhagen", "stockholm"),
)


def geant_backbone(
    seed: int = 0,
    scheme: SchemePlacement = None,
    cache_capacity: Optional[int] = None,
    caching: CachingSpec = None,
    policy: str = "lru",
    forwarding: str = "best-route",
) -> AttackTopology:
    """A GEANT-style European research backbone (fixed 12-city map).

    U and Adv share the Madrid PoP (the probe point); the producer sits
    behind Frankfurt, giving a 3-hop probe-to-producer path through the
    mesh.  ``seed`` only feeds the per-link jitter streams — the graph
    itself is fixed.
    """
    net, add_router = _start(
        seed, "madrid", scheme, cache_capacity, caching, policy, forwarding
    )
    for a, b in _GEANT_EDGES:
        for city in (a, b):
            if city not in net:
                add_router(city)
        net.connect(a, b, LogNormalDelay(base=3.0, tail_scale=0.5, sigma=0.7))

    lan = lambda: GaussianJitterDelay(base=1.8, jitter_std=0.12, floor=1.5)  # noqa: E731
    user = net.add_consumer("U")
    adversary = net.add_consumer("Adv")
    net.connect("U", "madrid", lan())
    net.connect("Adv", "madrid", lan())
    producer = net.add_producer("P", CONTENT_PREFIX)
    net.connect(
        "frankfurt", "P", GaussianJitterDelay(base=1.0, jitter_std=0.1, floor=0.8)
    )
    parent = _install_bfs_routes(net, "frankfurt", "P")
    return AttackTopology(
        network=net,
        user=user,
        adversary=adversary,
        router=net["madrid"],
        producer=producer,
        description="GEANT-style backbone: U/Adv at Madrid, producer behind Frankfurt",
        producer_path=[net[name] for name in _path_to_root(parent, "madrid")],
    )


# ----------------------------------------------------------------------
# Sim-core shapes (packet-path throughput and differential workloads)
# ----------------------------------------------------------------------
def star(
    seed: int = 0,
    scheme: SchemePlacement = None,
    cache_capacity: Optional[int] = None,
    caching: CachingSpec = None,
    policy: str = "lru",
    forwarding: str = "best-route",
    consumers: int = 16,
) -> AttackTopology:
    """The Figure-1 shape at scale: ``consumers`` hosts ``C0..`` on
    jittery LAN links around one router R, the producer behind it.

    ``C0`` and ``C1`` stand in for U and Adv (every consumer shares the
    probe router anyway).
    """
    if consumers < 2:
        raise TopologyError(f"need at least U and Adv, got {consumers} consumers")
    net, add_router = _start(
        seed, "R", scheme, cache_capacity, caching, policy, forwarding
    )
    router = add_router("R")
    producer = net.add_producer("P", CONTENT_PREFIX)
    net.connect("R", "P", LogNormalDelay(base=1.0, tail_scale=0.7, sigma=0.8))
    net.add_route("R", CONTENT_PREFIX, "P")
    hosts = []
    for j in range(consumers):
        hosts.append(net.add_consumer(f"C{j}"))
        net.connect(
            f"C{j}", "R", GaussianJitterDelay(base=1.8, jitter_std=0.12, floor=1.5)
        )
    return AttackTopology(
        network=net,
        user=hosts[0],
        adversary=hosts[1],
        router=router,
        producer=producer,
        description=f"star: {consumers} consumers around one router R",
    )


def tree(
    seed: int = 0,
    scheme: SchemePlacement = None,
    cache_capacity: Optional[int] = None,
    caching: CachingSpec = None,
    policy: str = "lru",
    forwarding: str = "best-route",
    processing_delay: float = 0.0,
    producer_delay: float = 0.0,
) -> AttackTopology:
    """A 3-level router tree (root - 2 aggregation - 4 leaves, two
    consumers per leaf) on deterministic links, which maximizes
    equal-time event ties and therefore stresses the engines'
    insertion-order determinism.

    ``processing_delay`` is every router's per-packet service time and
    ``producer_delay`` the producer's.  U and Adv are the two consumers
    of the first leaf ``R2-00``.
    """
    probe = "R2-00"
    net, add_router = _start(
        seed, probe, scheme, cache_capacity, caching, policy, forwarding
    )
    producer = net.add_producer(
        "P", CONTENT_PREFIX, processing_delay=producer_delay
    )
    add_router("R0", processing_delay=processing_delay)
    net.connect("R0", "P", FixedDelay(1.0))
    net.add_route("R0", CONTENT_PREFIX, "P")
    hosts = []
    for a in range(2):
        agg = f"R1-{a}"
        add_router(agg, processing_delay=processing_delay)
        net.connect(agg, "R0", FixedDelay(0.8))
        net.add_route(agg, CONTENT_PREFIX, "R0")
        for l in range(2):
            leaf = f"R2-{a}{l}"
            add_router(leaf, processing_delay=processing_delay)
            net.connect(leaf, agg, FixedDelay(0.5))
            net.add_route(leaf, CONTENT_PREFIX, agg)
            for c in range(2):
                hosts.append(net.add_consumer(f"C{a}{l}{c}"))
                net.connect(f"C{a}{l}{c}", leaf, FixedDelay(0.3))
    return AttackTopology(
        network=net,
        user=hosts[0],
        adversary=hosts[1],
        router=net[probe],
        producer=producer,
        description="3-level tree: U/Adv under leaf R2-00, producer behind R0",
        producer_path=[net["R1-0"], net["R0"]],
    )


# ----------------------------------------------------------------------
# Attack-harness shapes (the overload and closed-loop defense runs)
# ----------------------------------------------------------------------
def defense_tree(
    seed: int = 0,
    scheme: SchemePlacement = None,
    cache_capacity: Optional[int] = None,
    caching: CachingSpec = None,
    policy: str = "lru",
    forwarding: str = "best-route",
    pit_capacity: Optional[int] = None,
    rate_limit: Optional[InterestRateLimit] = None,
) -> AttackTopology:
    """The closed-loop defense run's two-level tree (all
    :class:`~repro.ndn.link.FixedDelay` links, so the serving tier is
    exactly recoverable from RTT: an edge hit costs ``2 × 0.5`` ms, a core
    hit 5 ms, a producer fetch 7 ms)::

                P   Pvoid            P      auto-generating producer
                 \\ /                 Pvoid  dead prefix (flood sink)
                  R0                  R0     core router
                 /  \\
               R1    R2               edge routers
              / |     |
            U1  A    U2               honest consumers U1/U2, attacker A

    U1 (U) and A (Adv) share the edge R1.  ``rate_limit`` arms the edges
    only: R0's faces carry honest and attack traffic mixed.
    """
    net, add_router = _start(
        seed, "R1", scheme, cache_capacity, caching, policy, forwarding,
        pit_capacity=pit_capacity, rate_limit=rate_limit,
    )
    add_router("R1")
    add_router("R2")
    add_router("R0", rate_limit=None)
    user = net.add_consumer("U1")
    net.add_consumer("U2")
    adversary = net.add_consumer("A")
    producer = net.add_producer("P", CONTENT_PREFIX)
    net.add_producer("Pvoid", "/void", auto_generate=False)
    for a, b, delay in (
        ("U1", "R1", 0.5), ("A", "R1", 0.5), ("U2", "R2", 0.5), ("R1", "R0", 2.0),
        ("R2", "R0", 2.0), ("R0", "P", 1.0), ("R0", "Pvoid", 1.0),
    ):
        net.connect(a, b, FixedDelay(delay))
    for prefix, origin in ((CONTENT_PREFIX, "P"), ("/void", "Pvoid")):
        net.add_route("R1", prefix, "R0")
        net.add_route("R2", prefix, "R0")
        net.add_route("R0", prefix, origin)
    return AttackTopology(
        network=net,
        user=user,
        adversary=adversary,
        router=net["R1"],
        producer=producer,
        description="defense tree: U1/A under edge R1, U2 under R2, core R0",
        producer_path=[net["R0"]],
    )


def overload_star(
    seed: int = 0,
    scheme: SchemePlacement = None,
    cache_capacity: Optional[int] = None,
    caching: CachingSpec = None,
    policy: str = "lru",
    forwarding: str = "best-route",
    pit_capacity: Optional[int] = None,
    pit_overflow: str = "drop-new",
    rate_limit: Optional[InterestRateLimit] = None,
) -> AttackTopology:
    """The overload run's star: one router between a consumer, an
    attacker and two producers::

        consumer c ──┐
        attacker a ──┤── router R ──┬── producer p   (/content, answers)
                     │              └── producer f   (/flood, silent)

    ``f`` never answers, so an interest for ``/flood/...`` dangles in R's
    PIT until its lifetime expires.  c is U and a is Adv.
    """
    net, add_router = _start(
        seed, "R", scheme, cache_capacity, caching, policy, forwarding,
        pit_capacity=pit_capacity, pit_overflow=pit_overflow,
        rate_limit=rate_limit,
    )
    router = add_router("R")
    user = net.add_consumer("c")
    adversary = net.add_consumer("a")
    producer = net.add_producer("p", CONTENT_PREFIX)
    net.add_producer("f", "/flood", auto_generate=False)
    for a, b, delay in (
        ("c", "R", 1.0), ("a", "R", 1.0), ("R", "p", 5.0), ("R", "f", 5.0),
    ):
        net.connect(a, b, FixedDelay(delay))
    net.add_route("R", CONTENT_PREFIX, "p")
    net.add_route("R", "/flood", "f")
    return AttackTopology(
        network=net,
        user=user,
        adversary=adversary,
        router=router,
        producer=producer,
        description="overload star: c and attacker a around R, silent /flood sink",
    )


#: The one name -> builder registry.  Every other mapping in the package
#: (the Figure 3 panels, the placement sweep's defaults, the differential
#: grid, the sim-core workloads, the attack harnesses) is a view of it,
#: and the views below partition it.
TOPOLOGIES: Dict[str, Callable[..., AttackTopology]] = {
    "fig3a_lan": local_lan,
    "fig3b_wan": wan,
    "fig3c_wan_producer": wan_producer,
    "fig3d_local_host": local_host,
    "fat_tree": fat_tree,
    "rocketfuel": rocketfuel_isp,
    "geant": geant_backbone,
    "star": star,
    "tree": tree,
    "defense_tree": defense_tree,
    "overload_star": overload_star,
}

#: The paper's four measurement settings, keyed by Figure 3 subfigure.
FIG3_PANELS = tuple(name for name in TOPOLOGIES if name.startswith("fig3"))

#: The multi-hop scale graphs (where cache placement can matter).
SCALE_GRAPHS = ("fat_tree", "rocketfuel", "geant")

#: The sim-core shapes (:mod:`repro.perf.simcore` drives them).
SIM_CORE_SHAPES = ("star", "tree")

#: The shapes the defense and overload harnesses run.
HARNESS_SHAPES = ("defense_tree", "overload_star")
