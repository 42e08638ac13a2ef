"""On-path caching strategies: *where* content is cached along the path.

The paper evaluates its privacy schemes under a single implicit placement
policy — cache everywhere (LCE).  Real NDN deployments use on-path
placement strategies that change exactly which router holds a copy, and
therefore exactly what an adversary's cache probes can observe.  This
module makes placement a first-class axis, orthogonal to both the privacy
schemes (:mod:`repro.core.schemes`) and the replacement policies
(:mod:`repro.ndn.replacement`):

* **scheme** — given that content *is* cached here, how is a request for
  it answered (hit / delayed hit / forced miss)?
* **replacement** — given that the cache is full, which entry leaves?
* **strategy** (this module) — given that content just arrived, does this
  hop take a copy at all?

A strategy is consulted exactly once per candidate insertion, in
:meth:`repro.ndn.forwarder.Forwarder._maybe_cache`, for content that is
*new* to this router's CS (a refresh of an already-cached name bypasses
admission, mirroring the batch kernel's re-insert path).  A declined
admission counts the ``cache_declined`` monitor counter and leaves the
CS conservation ledger untouched, so the invariant checker's law D
(``insertions == removed + len(cs)``) holds under any strategy.

Strategies that depend on *how far the serving node is* (LCD, ProbCache)
read :attr:`repro.ndn.packets.Data.origin_hops`, the hop count since the
node that served the content (producer or cache hit).  The field rides
the wire as an application-range TLV and is maintained by the forwarder
only when a hop-counting strategy is installed anywhere in the network
(``count_origin_hops``), so the default LCE data path is byte-identical
to a strategy-less build.

Randomized strategies (ProbCache, Bernoulli) own a named per-router RNG
stream (``caching:{router}`` under the network's
:class:`~repro.sim.rng.RngRegistry`), following the PR-1 seeding
discipline: decisions depend only on the root seed and the router name,
never on worker count or construction order.  They may hold it as a
:class:`~repro.sim.rng.LazyStream`, built at the first admission draw.

Every strategy here lowers to an int-keyed kernel in
:mod:`repro.sim.batch.compile` (strategy *subclasses* do not, and trigger
the documented ``BatchCompileError`` reference fallback).
"""

from __future__ import annotations

import math
from collections import Counter, deque
from functools import cached_property, lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Type

from repro.ndn.name import Name
from repro.sim.rng import as_generator


class StrategyError(ValueError):
    """A caching strategy was misconfigured or unknown."""


class CachingStrategy:
    """Base class: one cache-admission decision point, two engines.

    Subclasses override :meth:`admit`.  Class attributes tell the data
    plane what context the strategy actually needs, so the common case
    (LCE) pays nothing:

    * :attr:`trivial` — ``True`` when :meth:`admit` is identically
      ``True``; the forwarder then skips the call entirely,
    * :attr:`needs_origin_hops` — ``True`` when the decision reads
      ``origin_hops``; the network then turns on per-hop counting.
    """

    #: Registry key (set per subclass).
    kind: str = "?"
    trivial: bool = False
    needs_origin_hops: bool = False

    def admit(
        self,
        name: Name,
        origin_hops: int,
        forwarder,
        downstreams: Sequence = (),
    ) -> bool:
        """Should ``forwarder`` cache ``name`` arriving with ``origin_hops``?

        ``downstreams`` are the PIT faces the data is about to fan out
        on (used by edge detection).  Called only for content not already
        in the CS, after the cache filter, before any eviction.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Drop per-trial state (none by default; RNG streams persist)."""

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}()"


class LceStrategy(CachingStrategy):
    """Leave Copy Everywhere: every hop caches (the paper's implicit
    baseline).  ``trivial`` lets the forwarder skip the call."""

    kind = "lce"
    trivial = True

    def admit(self, name, origin_hops, forwarder, downstreams=()) -> bool:
        return True


class LcdStrategy(CachingStrategy):
    """Leave Copy Down: cache only one hop below the serving node.

    A copy migrates toward the consumer one hop per request: the router
    adjacent to the node that served the content (``origin_hops == 0``)
    admits; everyone further downstream declines.
    """

    kind = "lcd"
    needs_origin_hops = True

    def admit(self, name, origin_hops, forwarder, downstreams=()) -> bool:
        return origin_hops == 0


class ProbCacheStrategy(CachingStrategy):
    """ProbCache-style probabilistic admission weighted by path position.

    Admission probability grows with the distance already traveled from
    the serving node: ``p = min(1, (origin_hops + 1) / weight)``, a
    simplified single-parameter form of Psaras et al.'s ProbCache that
    keeps copies near consumers without caching everywhere.  One RNG draw
    per decision, always taken (even at ``p == 1``) so the stream
    position is a pure function of the decision sequence.
    """

    kind = "probcache"
    needs_origin_hops = True

    def __init__(self, rng, weight: float = 10.0) -> None:
        if rng is None:
            raise StrategyError("probcache needs an RNG stream (seeded per router)")
        if weight <= 0:
            raise StrategyError(f"probcache weight must be > 0, got {weight}")
        self._stream = rng
        self.weight = float(weight)

    @cached_property
    def _rng(self):
        return as_generator(self._stream)

    def admit(self, name, origin_hops, forwarder, downstreams=()) -> bool:
        p = (origin_hops + 1) / self.weight
        if p > 1.0:
            p = 1.0
        return self._rng.random() < p


class EdgeStrategy(CachingStrategy):
    """Edge caching: only the consumer-facing edge router takes a copy.

    A hop is "edge" for this data packet when any downstream PIT face
    leads to an end host (consumer or producer — anything without a FIB)
    rather than another router.
    """

    kind = "edge"

    def admit(self, name, origin_hops, forwarder, downstreams=()) -> bool:
        # End hosts have no FIB; routers do.  (Duck-typed to avoid a
        # forwarder import cycle; the batch kernel mirrors this as
        # ``dest_kind != DEST_ROUTER``.)
        return any(
            getattr(face.peer.owner, "fib", None) is None
            for face in downstreams
        )


def _node_label(node) -> Optional[str]:
    """Deterministic graph label for any network entity (None = skip)."""
    label = getattr(node, "name", None)
    if label is None:
        label = getattr(node, "producer_id", None)
    return str(label) if label is not None else None


def _node_faces(node) -> Sequence:
    """The faces of a router (many) or end host (one, possibly None)."""
    faces = getattr(node, "faces", None)
    if faces is not None:
        return faces
    face = getattr(node, "face", None)
    return (face,) if face is not None else ()


def discover_graph(forwarder) -> Tuple[Dict[str, List[str]], Dict[str, object]]:
    """BFS the live object graph from ``forwarder``.

    Returns ``(adjacency, nodes)``: an undirected adjacency map keyed by
    entity label with neighbors sorted (bit-reproducible traversal
    order), and the label → entity mapping for kind checks.
    """
    label = _node_label(forwarder)
    if label is None:
        return {}, {}
    nodes: Dict[str, object] = {label: forwarder}
    queue = deque([forwarder])
    edges: Dict[str, set] = {label: set()}
    while queue:
        node = queue.popleft()
        node_l = _node_label(node)
        for face in _node_faces(node):
            peer = getattr(face, "peer", None)
            if peer is None:
                continue
            owner = getattr(peer, "owner", None)
            owner_l = _node_label(owner) if owner is not None else None
            if owner_l is None:
                continue
            if owner_l not in nodes:
                nodes[owner_l] = owner
                edges[owner_l] = set()
                queue.append(owner)
            edges[node_l].add(owner_l)
            edges[owner_l].add(node_l)
    adjacency = {
        node_l: sorted(neighbors) for node_l, neighbors in sorted(edges.items())
    }
    return adjacency, nodes


def brandes_betweenness(adjacency: Dict[str, List[str]]) -> Dict[str, float]:
    """Exact unweighted betweenness centrality (Brandes' algorithm).

    Deterministic for a given adjacency map: sources are visited in
    sorted order and neighbor lists are consumed as given, so the float
    accumulation order — and therefore the result, bit for bit — is a
    pure function of the graph.  Pair counts are undirected (each
    unordered pair contributes to both traversal directions; the common
    factor cancels in any threshold comparison).

    Being a pure function of the map, a result is memoised per graph
    (a few graphs, keyed on the map's tuple form); each call returns a
    fresh dict.
    """
    graph = tuple((v, tuple(neighbors)) for v, neighbors in adjacency.items())
    return dict(_betweenness(graph))


@lru_cache(maxsize=8)
def _betweenness(graph: Tuple[Tuple[str, Tuple[str, ...]], ...]):
    """Brandes over ``graph`` (``brandes_betweenness``'s map as pairs);
    returns ``(node, centrality)`` pairs in map order."""
    adjacency = dict(graph)
    centrality = {v: 0.0 for v in adjacency}
    for source in sorted(adjacency):
        stack: List[str] = []
        predecessors: Dict[str, List[str]] = {v: [] for v in adjacency}
        sigma = dict.fromkeys(adjacency, 0.0)
        sigma[source] = 1.0
        dist = dict.fromkeys(adjacency, -1)
        dist[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in adjacency[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    predecessors[w].append(v)
        delta = dict.fromkeys(adjacency, 0.0)
        while stack:
            w = stack.pop()
            for v in predecessors[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != source:
                centrality[w] += delta[w]
    return tuple(centrality.items())


class BetweennessRanking(NamedTuple):
    """What a CL4M verdict is read from: one graph's betweenness.

    ``centrality`` maps every node label of the graph to its score (empty
    for an isolated node), ``router_scores`` holds the routers' scores in
    ascending order (routers are the nodes with a FIB: end hosts sit at
    path endpoints, score ~0, and would drag any quantile down to
    "everyone admits"), ``nodes`` maps each label to its entity.
    """

    centrality: Dict[str, float]
    router_scores: List[float]
    nodes: Dict[str, object]


def betweenness_ranking(forwarder) -> BetweennessRanking:
    """Discover ``forwarder``'s graph and rank it (one Brandes pass,
    memoised per distinct graph)."""
    adjacency, nodes = discover_graph(forwarder)
    centrality = brandes_betweenness(adjacency) if adjacency else {}
    router_scores = sorted(
        score
        for node_label, score in centrality.items()
        if getattr(nodes[node_label], "fib", None) is not None
    )
    return BetweennessRanking(centrality, router_scores, nodes)


class Cl4mStrategy(CachingStrategy):
    """Cache-Less-for-More placement by true betweenness centrality.

    CL4M ("Cache Less for More") concentrates copies at the nodes most
    shortest paths cross.  This implementation computes **exact**
    betweenness centrality with Brandes' algorithm over the full network
    graph — routers *and* end hosts, discovered by BFS over the live
    face/peer object graph — once per network, at the first admission
    decision any of its CL4M routers takes (the topology is complete by
    then; construction happens while the network is still being wired).
    The Brandes pass itself runs once per distinct graph: networks built
    alike (every point of a sweep over one topology) share its memoised
    result.
    The verdict is a topology constant thereafter:

        admit  ⇔  own centrality ≥ the ``quantile``-quantile of the
                  betweenness distribution over all *routers*

    so with the default ``quantile=0.75`` only the top quarter
    (ties included) of routers by centrality take copies.  ``reset()``
    keeps the cached verdict — betweenness is topology state, not trial
    state.  The decision is deterministic (sorted traversal order, no
    RNG) and lowers to a precomputed boolean in the batch kernel.
    """

    kind = "cl4m"

    def __init__(self, quantile: float = 0.75) -> None:
        if not 0.0 < quantile <= 1.0:
            raise StrategyError(
                f"cl4m quantile must be in (0, 1], got {quantile}"
            )
        self.quantile = float(quantile)
        self._verdict: Optional[bool] = None

    def compute_verdict(
        self, forwarder, ranking: Optional[BetweennessRanking] = None
    ) -> bool:
        """The (cached) topology-constant admission verdict for this node.

        ``ranking`` is :func:`betweenness_ranking` of ``forwarder``'s
        graph when the caller already holds it (a compiled topology
        shape keeps one per graph); without it the graph is discovered
        and ranked here.
        """
        if self._verdict is None:
            self._resolve_network(
                forwarder,
                ranking if ranking is not None else betweenness_ranking(forwarder),
            )
        return self._verdict

    def _resolve_network(self, forwarder, ranking: BetweennessRanking) -> None:
        """One Brandes pass settles the whole network, not just this node.

        Betweenness is a property of the graph, so the pass that ranks
        ``forwarder`` also fills the verdict of every still-unresolved
        CL4M router it discovered, each against its own quantile —
        ``n`` routers cost one pass, not ``n``.  Every verdict is thereby
        fixed at the network's *first* decision: links added after it
        are ignored, also for routers that have not asked yet.  An
        instance shared by several routers is left out of the fill, so
        it keeps the verdict of the first of them that asks.
        """
        centrality, router_scores = ranking.centrality, ranking.router_scores
        label = _node_label(forwarder)
        if label not in centrality:
            self._verdict = True  # isolated node: nothing to rank against
            return
        self._verdict = self._admits(centrality[label], router_scores)
        held = [
            (node_label, strategy)
            for node_label, node in ranking.nodes.items()
            if isinstance(strategy := getattr(node, "caching", None), Cl4mStrategy)
        ]
        holders = Counter(id(strategy) for _, strategy in held)
        for node_label, strategy in held:
            if strategy._verdict is None and holders[id(strategy)] == 1:
                strategy._verdict = strategy._admits(
                    centrality[node_label], router_scores
                )

    def _admits(self, score: float, router_scores: List[float]) -> bool:
        """``score`` reaches this strategy's quantile of ``router_scores``
        (sorted ascending)."""
        if not router_scores:
            return True
        # The q-quantile by rank: threshold = scores[ceil(q*n) - 1].
        index = math.ceil(self.quantile * len(router_scores)) - 1
        index = min(max(index, 0), len(router_scores) - 1)
        return score >= router_scores[index]

    def admit(self, name, origin_hops, forwarder, downstreams=()) -> bool:
        return self.compute_verdict(forwarder)


class BernoulliStrategy(CachingStrategy):
    """Seeded Bernoulli(p) admission: cache with fixed probability.

    The classic randomized baseline (``p = 1`` degenerates to LCE but
    still draws, keeping the stream position decision-counted).
    """

    kind = "bernoulli"

    def __init__(self, rng, p: float = 0.5) -> None:
        if rng is None:
            raise StrategyError("bernoulli needs an RNG stream (seeded per router)")
        if not 0.0 <= p <= 1.0:
            raise StrategyError(f"bernoulli p must be in [0, 1], got {p}")
        self._stream = rng
        self.p = float(p)

    @cached_property
    def _rng(self):
        return as_generator(self._stream)

    def admit(self, name, origin_hops, forwarder, downstreams=()) -> bool:
        return self._rng.random() < self.p


#: Registry of built-in strategies by kind.
STRATEGIES: Dict[str, Type[CachingStrategy]] = {
    "lce": LceStrategy,
    "lcd": LcdStrategy,
    "probcache": ProbCacheStrategy,
    "edge": EdgeStrategy,
    "cl4m": Cl4mStrategy,
    "bernoulli": BernoulliStrategy,
}

#: Strategies whose decisions consume RNG draws (the only kinds that
#: need — and therefore derive — a per-router ``caching:`` stream).
RANDOMIZED_STRATEGIES = ("probcache", "bernoulli")


def make_strategy(
    kind: str, rng=None, **params
) -> CachingStrategy:
    """Build a registered strategy by kind.

    ``rng`` is the per-router stream (``RngRegistry.stream(f"caching:{name}")``,
    or a :class:`~repro.sim.rng.LazyStream` on that name) and is required
    for the randomized strategies, ignored by the deterministic ones.
    Extra ``params`` go to the constructor (``weight``, ``p``,
    ``quantile``).
    """
    try:
        cls = STRATEGIES[kind]
    except KeyError:
        raise StrategyError(
            f"unknown caching strategy {kind!r}; choose from "
            f"{sorted(STRATEGIES)}"
        ) from None
    if kind in RANDOMIZED_STRATEGIES:
        return cls(rng=rng, **params)
    return cls(**params)


def strategy_of(value: Optional[object], rng=None) -> Optional[CachingStrategy]:
    """Normalize a strategy spec: None, a kind string, or an instance."""
    if value is None or isinstance(value, CachingStrategy):
        return value
    if isinstance(value, str):
        return make_strategy(value, rng=rng)
    raise StrategyError(
        f"caching strategy must be None, a kind string, or a "
        f"CachingStrategy, got {type(value).__name__}"
    )
