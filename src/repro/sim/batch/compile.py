"""Topology compiler: lower a ``Network`` object graph into dense arrays.

The compiler walks an *untouched* network (fresh engine, empty caches)
plus its consumer scripts and emits a :class:`CompiledTopology` of plain
ints, lists, and bytearrays that :mod:`repro.sim.batch.kernel` executes
without touching a single ``Name``/``Interest``/``Data`` object on the
hot path:

* **names** — the workload vocabulary is interned to dense content ids;
  the vocabulary must be prefix-free so exact-id matching is provably
  equal to the reference prefix-matching (CS lookup, PIT satisfy,
  consumer matching, producer resolve),
* **faces** — every directed link direction becomes an int edge id
  (``2*link`` and ``2*link+1``); the reverse direction is ``edge ^ 1``,
  which is how the kernel recovers a packet's arrival face,
* **FIB** — per (router, name) next-hop candidate lists of send-edge
  ids in FIB cost order, resolved once per *route class* (the names
  sharing one longest match in the union of all routers' FIB prefixes
  — every FIB answers them alike) rather than once per name,
* **CS/PIT/schemes** — capacities, replacement-policy kinds (and their
  RNG streams), :class:`~repro.core.schemes.base.SchemeKernel` instances
  and delay-policy modes; PIT state itself is runtime kernel state.

The output has two parts.  The **shape** (:class:`TopologyShape`) is
everything that depends only on the wiring and the scripts: links and
their delay kinds, directed edges, route classes and ``next_hops``, the
acyclicity check, producer serve tables, consumer steps, and CL4M's
betweenness ranking (computed when a CL4M router first asks).  The
**binding** (:class:`CompiledTopology`) is everything a seed, a privacy
scheme or a caching strategy decides: the link, policy and strategy
streams, the scheme kernels, the strategies lowered per router and
``count_origin_hops``.  :func:`compile_topology` reads both from a
network; :meth:`CompiledTopology.rebind` binds a new seed, scheme and
strategy to the same shape through the same lowering, so a sweep that
varies only those compiles each shape once.

Link, policy and strategy streams are carried as the holders hold them
(a generator or a :class:`~repro.sim.rng.LazyStream`) and resolved by the
kernel at their first draw, so compiling builds no generator.

Anything the kernel cannot reproduce *bit-identically* raises
:class:`BatchCompileError` with the reason, and callers fall back to the
reference engine — unsupported combinations are loud at compile time and
silent (but correct) at run time, never silently divergent.

Compilation is read-only with respect to observables: it may warm
memoized caches (FIB LPM memo, interned names) and construct scheme
kernels, but it never advances an RNG stream, schedules an event, or
mutates a counter, so a failed or unused compile leaves the network
ready for a reference run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.schemes.base import CacheScheme, SchemeKernel
from repro.core.schemes.delay_policies import ConstantDelay, ContentSpecificDelay
from repro.core.schemes.marking import MarkingPolicy
from repro.core.schemes.no_privacy import NoPrivacyScheme
from repro.ndn.apps.consumer import Consumer
from repro.ndn.apps.producer import Producer
from repro.ndn.forwarder import Forwarder, never_cache
from repro.ndn.link import FixedDelay, GaussianJitterDelay, LogNormalDelay
from repro.ndn.name import Name
from repro.ndn.network import (
    Network,
    counts_origin_hops,
    link_stream,
    policy_stream,
    router_caching,
)
from repro.ndn.replacement import (
    FifoPolicy,
    LfuPolicy,
    LruPolicy,
    RandomPolicy,
)
from repro.ndn.strategy import (
    BernoulliStrategy,
    BetweennessRanking,
    CachingStrategy,
    Cl4mStrategy,
    EdgeStrategy,
    LcdStrategy,
    LceStrategy,
    ProbCacheStrategy,
    betweenness_ranking,
)
from repro.ndn.topology import CachingSpec, SchemePlacement, place_scheme
from repro.sim.batch.script import (
    ConsumerScript,
    NetworkSpentError,
    SleepStep,
    mark_spent,
    refuse_spent,
)
from repro.sim.rng import RngRegistry, Stream, stream_key


class BatchCompileError(Exception):
    """The topology/scheme/script combination cannot be lowered."""


# ----------------------------------------------------------------------
# Router monitor counters the kernel maintains (index = position here).
# This is the complete set the reference forwarder can touch on the
# supported subset; anything outside it (Nacks, rate limiting, scope
# drops) is excluded by a compile-time check below.
# ----------------------------------------------------------------------
COUNTER_NAMES: Tuple[str, ...] = (
    "interest_in",
    "cs_hit",
    "cs_disguised_hit",
    "cs_forced_miss",
    "cs_miss",
    "pit_collapse",
    "interest_retransmitted",
    "no_route",
    "pit_insert",
    "interest_forwarded",
    "pit_expired",
    "data_in",
    "unsolicited_data",
    "pit_satisfied",
    "cs_insert",
    "data_out",
    "cache_declined",
    "cache_skipped",
)

#: Node kinds for the edge destination table.
DEST_ROUTER = 0
DEST_CONSUMER = 1
DEST_PRODUCER = 2

#: Link delay-model kinds.
DELAY_FIXED = 0
DELAY_GAUSSIAN = 1
DELAY_LOGNORMAL = 2

#: Scheme artificial-delay modes.
SCHEME_DELAY_NONE = 0  # scheme can never answer DELAYED_HIT
SCHEME_DELAY_CONTENT = 1  # ContentSpecificDelay: entry fetch_delay
SCHEME_DELAY_CONSTANT = 2  # ConstantDelay: fixed gamma

#: Producer serve modes, per (producer, name).
SERVE_SILENT = 0
SERVE_DATA = 1

#: Caching-strategy kinds (int-keyed admission kernels; see
#: :mod:`repro.ndn.strategy` for the reference semantics each mirrors).
S_LCE = 0
S_LCD = 1
S_PROB = 2
S_EDGE = 3
S_CL4M = 4
S_BERN = 5


@dataclass
class CompiledLink:
    """One physical link: its delay sampler spec."""

    name: str
    delay_kind: int
    # FIXED: (delay,); GAUSSIAN: (base, std, floor); LOGNORMAL: (base, scale, sigma)
    params: Tuple[float, ...]


@dataclass
class RouterShape:
    """What a forwarder is whatever the seed, scheme or strategy."""

    name: str
    capacity: Optional[int]
    policy_kind: str  # "lru" | "fifo" | "lfu" | "random"
    processing_delay: float
    #: ``cache_filter is never_cache``: arriving data is counted as
    #: ``cache_skipped`` and never inserted.
    never_cache: bool
    #: Per name id: candidate send-edge ids in FIB cost order (or ()).
    next_hops: List[Tuple[int, ...]] = field(default_factory=list)


@dataclass
class CompiledRouter:
    """One router as one program runs it: its shape plus its binding."""

    shape: RouterShape
    policy_stream: Optional[Stream]  # RandomPolicy's stream (None otherwise)
    kernel: Optional[SchemeKernel]
    delay_mode: int
    delay_gamma: float
    #: Cache-admission strategy: int kind, scalar parameter (ProbCache
    #: weight / CL4M betweenness verdict / Bernoulli p) and the
    #: strategy's own RNG stream (randomized kinds only).
    strategy_kind: int = S_LCE
    strategy_param: float = 0.0
    strategy_stream: Optional[Stream] = None


@dataclass
class CompiledConsumer:
    """One consumer: its uplink edge and precompiled script steps."""

    name: str
    edge: int  # send-edge id toward the network
    #: Steps: ("F", name_id, timeout, lifetime, private) | ("S", delay)
    steps: List[tuple]


@dataclass
class CompiledProducer:
    """One producer: per-name serve table and processing delay."""

    name: str
    processing_delay: float
    serve: bytearray  # per name id: SERVE_SILENT | SERVE_DATA


@dataclass
class TopologyShape:
    """The part of a compiled topology no seed, scheme or strategy
    changes: one per wiring and script set, shared by every program
    bound to it (and never mutated by a run)."""

    names: List[Name]
    #: Per name id: Data.effectively_private of the object serving it.
    name_private: List[bool]
    links: List[CompiledLink]
    #: Per directed edge id: destination node kind / index.
    dest_kind: List[int]
    dest_idx: List[int]
    routers: List[RouterShape]
    consumers: List[CompiledConsumer]
    producers: List[CompiledProducer]
    #: Per *entity-order* consumer index (the index space ``dest_idx``
    #: uses): position in :attr:`consumers` (script order), or -1 for a
    #: consumer entity with no script (it can only sink stray packets).
    consumer_script_of_entity: List[int]
    #: The forwarders the shape was read from, in router order: the
    #: graph CL4M ranks (their own schemes and generators are not used).
    forwarders: List[Forwarder]
    _rankings: Dict[str, BetweennessRanking] = field(default_factory=dict)

    def ranking(self, rid: int) -> BetweennessRanking:
        """Betweenness of router ``rid``'s graph, ranked at the first
        CL4M router that asks and kept for every node it covers."""
        router = self.forwarders[rid]
        ranking = self._rankings.get(router.name)
        if ranking is None:
            ranking = betweenness_ranking(router)
            for label in (router.name, *ranking.nodes):
                self._rankings[label] = ranking
        return ranking


@dataclass
class CompiledTopology:
    """One runnable program: a shape plus the streams, schemes and
    strategies bound to it.  It runs once
    (:class:`~repro.sim.batch.script.NetworkSpentError` after that);
    :meth:`rebind` makes another program on the same shape."""

    shape: TopologyShape
    routers: List[CompiledRouter]
    #: Per link: its delay stream (None for FIXED, which never draws).
    link_streams: List[Optional[Stream]]
    #: Whether forwarders maintain ``Data.origin_hops`` (uniform across
    #: the network; mixed settings fail compilation).
    count_origin_hops: bool
    #: The registry every stream of the program resolves in.
    rng: RngRegistry
    #: The network :func:`compile_topology` read (its generators are the
    #: program's, so a run spends it); ``None`` for a rebound program.
    net: Optional[Network] = None
    spent: bool = False

    def claim(self) -> None:
        """Claim the program for its one run (and spend its network)."""
        if self.spent:
            raise NetworkSpentError(
                "compiled program already ran on the batch kernel (its "
                "generators are consumed): rebind or compile a fresh one"
            )
        if self.net is not None:
            mark_spent(self.net)
        self.spent = True

    def rebind(
        self, seed: int, scheme: SchemePlacement, caching: CachingSpec, probe: str
    ) -> "CompiledTopology":
        """A fresh program on this shape: what a builder would bind to
        the same wiring given ``seed``, ``scheme`` and ``caching``.

        The streams are ``RngRegistry(seed)``'s, named as
        :class:`~repro.ndn.network.Network` names them; ``scheme`` lands
        as :data:`~repro.ndn.topology.SchemePlacement` says (``probe`` names
        the router an instance guards; every other router gets the
        forwarder's default, no privacy); ``caching`` is built per router
        as ``Network.add_router`` builds it.  Everything is lowered by the
        code :func:`compile_topology` uses, refusals included.  The
        wiring is the shape's: a builder whose graph draws from its seed
        (``rocketfuel``'s chords) matches a fresh build at the seed the
        shape was built with.
        """
        shape = self.shape
        rng = RngRegistry(seed)
        strategies = [router_caching(rng, r.name, caching) for r in shape.routers]
        schemes = []
        for router in shape.routers:
            guard = place_scheme(scheme, router.name, probe)
            schemes.append(guard if guard is not None else NoPrivacyScheme())
        return _bind(
            shape,
            rng,
            link_streams=[
                link_stream(rng, link.name) if link.delay_kind != DELAY_FIXED else None
                for link in shape.links
            ],
            strategies=strategies,
            schemes=schemes,
            policy_streams=[
                policy_stream(rng, r.name) if r.policy_kind == "random" else None
                for r in shape.routers
            ],
            count_origin_hops=any(counts_origin_hops(s) for s in strategies),
        )


def _check_engine_fresh(net: Network) -> None:
    engine = net.engine
    if engine.now != 0.0 or engine.events_processed or engine._queue:
        raise BatchCompileError(
            "engine already ran: the batch kernel requires a fresh network"
        )


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise BatchCompileError(reason)


def _collect_entities(net: Network):
    routers: List[Forwarder] = []
    consumers: List[Consumer] = []
    producers: List[Producer] = []
    for name, entity in net._entities.items():
        if isinstance(entity, Forwarder):
            routers.append(entity)
        elif type(entity) is Consumer:  # a subclass (InteractiveEndpoint) also serves
            consumers.append(entity)
        elif isinstance(entity, Producer):
            producers.append(entity)
        else:
            raise BatchCompileError(
                f"entity {name!r} has unsupported type {type(entity).__name__}"
            )
    return routers, consumers, producers


def _intern_vocabulary(
    scripts: Sequence[ConsumerScript], routers: List[Forwarder]
) -> Tuple[List[Name], Dict[int, tuple], List[int], List[Name]]:
    """One pass over the scripts' distinct steps: vocabulary, lowered
    steps, route classes.

    Returns ``(names, lowered, name_class, class_reps)``: the workload
    vocabulary in first-seen order (prefix-free checked), the kernel's
    step tuple of every distinct step object keyed by its ``id`` (steps
    are shared values, so a step object is lowered once however many
    scripts hold it; the scripts keep every step alive for the compile
    call, so no id is recycled while the memo lives), the route class of
    each name id, and the first-seen member of each class.

    A name's route class is its longest match in the union of all
    routers' FIB prefixes (or "no match").  Every prefix of the name
    that any single FIB registers is in the union, hence a prefix of
    that longest match — so each router's longest-prefix match, and with
    it the candidate next hops, is the same for all names of a class.
    """
    prefixes = {
        prefix.components for router in routers for prefix in router.fib.prefixes
    }
    lengths = sorted({len(prefix) for prefix in prefixes}, reverse=True)
    names: List[Name] = []
    # Fetch names as the scripts spell them, and as interned Names.
    name_ids: Dict[object, int] = {}
    lowered: Dict[int, tuple] = {}
    name_class: List[int] = []
    class_ids: Dict[Optional[Tuple[str, ...]], int] = {}
    class_reps: List[Name] = []
    for script in scripts:
        for key, step in dict(zip(map(id, script.steps), script.steps)).items():
            if key in lowered:
                continue
            if isinstance(step, SleepStep):
                lowered[key] = ("S", step.delay)
                continue
            nid = name_ids.get(step.name)
            if nid is None:
                name = Name.intern(step.name)
                nid = name_ids.get(name)
                if nid is None:
                    nid = name_ids[name] = len(names)
                    names.append(name)
                    comps = name.components
                    matched = None
                    for length in lengths:
                        candidate = comps[:length]
                        if len(candidate) == length and candidate in prefixes:
                            matched = candidate
                            break
                    cid = class_ids.get(matched)
                    if cid is None:
                        cid = class_ids[matched] = len(class_reps)
                        class_reps.append(name)
                    name_class.append(cid)
                name_ids[step.name] = nid
            # The step checked its own values when it was built.
            lowered[key] = ("F", nid, step.timeout, step.lifetime, bool(step.private))
    _require(bool(names), "scripts contain no fetch steps")
    # Prefix-freeness: sorted component tuples put any prefix immediately
    # before an extension of it.
    ordered = sorted(n.components for n in names)
    for a, b in zip(ordered, ordered[1:]):
        if b[: len(a)] == a:
            raise BatchCompileError(
                f"vocabulary is not prefix-free: {'/' + '/'.join(a)} is a "
                f"prefix of {'/' + '/'.join(b)}"
            )
    return names, lowered, name_class, class_reps


def _compile_link(link) -> CompiledLink:
    _require(link.loss_rate == 0.0, f"link {link.name}: loss is not supported")
    model = link.delay_model
    if type(model) is FixedDelay:
        return CompiledLink(link.name, DELAY_FIXED, (model._delay,))
    if type(model) is GaussianJitterDelay:
        return CompiledLink(
            link.name, DELAY_GAUSSIAN, (model._base, model._std, model._floor)
        )
    if type(model) is LogNormalDelay:
        return CompiledLink(
            link.name, DELAY_LOGNORMAL, (model._base, model._scale, model._sigma)
        )
    raise BatchCompileError(
        f"link {link.name}: unsupported delay model {type(model).__name__}"
    )


def _scheme_delay_mode(scheme: CacheScheme) -> Tuple[int, float]:
    policy = getattr(scheme, "delay_policy", None)
    if policy is None:
        return SCHEME_DELAY_NONE, 0.0
    if type(policy) is ContentSpecificDelay:
        return SCHEME_DELAY_CONTENT, 0.0
    if type(policy) is ConstantDelay:
        return SCHEME_DELAY_CONSTANT, policy.gamma
    raise BatchCompileError(
        f"unsupported delay policy {type(policy).__name__} "
        f"(DynamicDelay needs per-entry access counts)"
    )


def _router_shape(router: Forwarder) -> RouterShape:
    """Everything about ``router`` that no seed, scheme or strategy
    changes, except ``next_hops`` (filled once the names are known)."""
    name = router.name
    _require(
        router.strategy == "best-route",
        f"router {name}: strategy {router.strategy!r} is not supported",
    )
    _require(
        router.rate_limiter is None,
        f"router {name}: rate limiting is not supported",
    )
    _require(
        router.defense is None,
        f"router {name}: online defense agents are not supported "
        f"(defended runs ride the reference engine)",
    )
    # An arbitrary callable's verdict is unknowable without running it;
    # the one named constant filter is lowered by identity.
    skips_caching = router.cache_filter is never_cache
    _require(
        router.cache_filter is None or skips_caching,
        f"router {name}: cache filters other than never_cache are not "
        f"supported",
    )
    _require(
        not router.nack_on_no_route,
        f"router {name}: nack_on_no_route is not supported",
    )
    _require(
        type(router.marking) is MarkingPolicy,
        f"router {name}: custom marking policy "
        f"{type(router.marking).__name__} is not supported",
    )
    pit = router.pit
    _require(
        pit.capacity is None and len(pit) == 0,
        f"router {name}: bounded or pre-populated PITs are not supported",
    )
    cs = router.cs
    _require(len(cs) == 0, f"router {name}: pre-populated CS is not supported")
    policy = cs.policy
    if type(policy) is LruPolicy:
        policy_kind = "lru"
    elif type(policy) is FifoPolicy:
        policy_kind = "fifo"
    elif type(policy) is LfuPolicy:
        policy_kind = "lfu"
    elif type(policy) is RandomPolicy:
        policy_kind = "random"
    else:
        raise BatchCompileError(
            f"router {name}: unsupported replacement policy "
            f"{type(policy).__name__}"
        )
    return RouterShape(
        name=name,
        capacity=cs.capacity,
        policy_kind=policy_kind,
        processing_delay=router.processing_delay,
        never_cache=skips_caching,
    )


def _lower_strategy(
    shape: TopologyShape, rid: int, strategy: Optional[CachingStrategy]
) -> Tuple[int, float, Optional[Stream]]:
    """Router ``rid``'s caching strategy as ``(kind, param, stream)``."""
    # Exact-type dispatch: a strategy *subclass* may override admit()
    # arbitrarily, so it must hit the reference fallback, not silently
    # run the base class's kernel.
    if strategy is None or type(strategy) is LceStrategy:
        return S_LCE, 0.0, None
    if type(strategy) is LcdStrategy:
        return S_LCD, 0.0, None
    if type(strategy) is ProbCacheStrategy:
        return S_PROB, strategy.weight, strategy._stream
    if type(strategy) is EdgeStrategy:
        return S_EDGE, 0.0, None
    if type(strategy) is Cl4mStrategy:
        # The betweenness verdict is a topology constant: settle it here
        # from the shape's ranking (read-only, per the compiler contract —
        # Brandes touches no RNG, schedules nothing, mutates no counter)
        # and lower the boolean.  The strategy keeps the verdict, so the
        # reference engine decides identically by construction.
        verdict = strategy.compute_verdict(shape.forwarders[rid], shape.ranking(rid))
        return S_CL4M, 1.0 if verdict else 0.0, None
    if type(strategy) is BernoulliStrategy:
        return S_BERN, strategy.p, strategy._stream
    raise BatchCompileError(
        f"router {shape.routers[rid].name}: unsupported caching strategy "
        f"{type(strategy).__name__}"
    )


def _bind(
    shape: TopologyShape,
    rng: RngRegistry,
    link_streams: List[Optional[Stream]],
    strategies: Sequence[Optional[CachingStrategy]],
    schemes: Sequence[CacheScheme],
    policy_streams: Sequence[Optional[Stream]],
    count_origin_hops: bool,
    net: Optional[Network] = None,
) -> CompiledTopology:
    """A program on ``shape``: each router's strategy and scheme
    lowered, with the given streams, or refuse (also a scheme instance or
    a scheme generator held twice)."""
    routers: List[CompiledRouter] = []
    scheme_owner: Dict[int, str] = {}
    for rid, shaped in enumerate(shape.routers):
        name = shaped.name
        strategy_kind, strategy_param, strategy_stream = _lower_strategy(
            shape, rid, strategies[rid]
        )
        scheme = schemes[rid]
        key = id(scheme)
        if key in scheme_owner:
            # One scheme instance on two routers shares RNG *and*
            # per-content state in the reference; the int-keyed kernel
            # cannot mirror the cross-router entry bookkeeping, so refuse
            # rather than diverge.
            raise BatchCompileError(
                f"scheme instance shared between routers "
                f"{scheme_owner[key]!r} and {name!r}"
            )
        scheme_owner[key] = name
        delay_mode, delay_gamma = _scheme_delay_mode(scheme)
        routers.append(
            CompiledRouter(
                shape=shaped,
                policy_stream=policy_streams[rid],
                kernel=None,
                delay_mode=delay_mode,
                delay_gamma=delay_gamma,
                strategy_kind=strategy_kind,
                strategy_param=strategy_param,
                strategy_stream=strategy_stream,
            )
        )
    # A scheme kernel draws k_C in blocks, so its generator may have no
    # second holder (the reference interleaves consumers in event order).
    # Streams are compared by key, which builds no generator (rng.stream_key).
    drawn_by: Dict[Hashable, str] = {}  # stream key -> router whose scheme holds it
    for shaped, scheme in zip(shape.routers, schemes):
        scheme_rng = getattr(scheme, "rng", None)
        if scheme_rng is not None:
            first = drawn_by.setdefault(stream_key(scheme_rng), shaped.name)
            shared = f"{first}'s scheme and {shaped.name}'s scheme"
            _require(first == shaped.name, shared + " share one random generator")
    for cr in routers:
        for stream in (cr.policy_stream, cr.strategy_stream):
            owner = drawn_by.get(stream_key(stream)) if stream is not None else None
            if owner is not None:
                shared = f"{owner}'s scheme and {cr.shape.name}'s policy/strategy"
                raise BatchCompileError(shared + " share one random generator")
    for cr, scheme in zip(routers, schemes):
        cr.kernel = kernel = scheme.make_kernel(shape.names)
        _require(
            kernel is not None,
            f"router {cr.shape.name}: scheme {type(scheme).__name__} "
            f"provides no kernel",
        )
    return CompiledTopology(
        shape=shape,
        routers=routers,
        link_streams=link_streams,
        count_origin_hops=count_origin_hops,
        rng=rng,
        net=net,
    )


def _class_next_hops(
    router: Forwarder, class_reps: List[Name], face_to_edge: Dict[int, int]
) -> List[Tuple[int, ...]]:
    """Per route class: ``router``'s candidate send-edge ids in FIB cost
    order — one longest-prefix match per class, on its representative."""
    class_hops: List[Tuple[int, ...]] = []
    for representative in class_reps:
        hops = router.fib.longest_prefix_match(representative)
        if not hops:
            class_hops.append(())
            continue
        edges = []
        for hop in hops:
            edge = face_to_edge.get(id(hop.face))
            if edge is None:
                raise BatchCompileError(
                    f"router {router.name}: FIB face {hop.face!r} is not "
                    f"attached to a compiled link"
                )
            edges.append(edge)
        class_hops.append(tuple(edges))
    return class_hops


def _compile_producer(
    producer: Producer, names: List[Name], name_private: List[Optional[bool]]
) -> CompiledProducer:
    serve = bytearray(len(names))
    for nid, content in enumerate(names):
        if not producer.prefix.is_prefix_of(content):
            continue  # foreign interest: silently unanswered
        data = producer.repo.get(content)
        if data is not None:
            if data.freshness is not None:
                raise BatchCompileError(
                    f"producer {producer.producer_id}: freshness-bounded "
                    f"content {content} needs the reference stale logic"
                )
            flag = data.effectively_private
        else:
            # The reference would serve a *differently named* published
            # object if one extends this name — the kernel cannot (data
            # ids are exact), so refuse that shape.
            extension = producer.smallest_extension(content)
            if extension is not None:
                raise BatchCompileError(
                    f"producer {producer.producer_id}: published name "
                    f"{extension.name} extends workload name {content}"
                )
            if not producer.auto_generate:
                continue
            flag = producer.private_by_default or content.marked_private
        serve[nid] = SERVE_DATA
        previous = name_private[nid]
        if previous is None:
            name_private[nid] = flag
        elif previous != flag:
            raise BatchCompileError(
                f"name {content} is served with conflicting privacy "
                f"flags by different producers"
            )
    return CompiledProducer(
        name=producer.producer_id,
        processing_delay=producer.processing_delay,
        serve=serve,
    )


def _compile_consumer_scripts(
    net: Network,
    scripts: Sequence[ConsumerScript],
    lowered: Dict[int, tuple],
    face_to_edge: Dict[int, int],
) -> List[CompiledConsumer]:
    compiled: List[CompiledConsumer] = []
    seen: Dict[str, bool] = {}
    for script in scripts:
        _require(
            script.consumer not in seen,
            f"consumer {script.consumer!r} appears in multiple scripts",
        )
        seen[script.consumer] = True
        _require(
            script.consumer in net,
            f"script references unknown entity {script.consumer!r}",
        )
        consumer = net[script.consumer]
        _require(
            type(consumer) is Consumer,
            f"script target {script.consumer!r} is not a plain Consumer",
        )
        _require(
            consumer.face is not None and consumer.face.link is not None,
            f"consumer {script.consumer!r} has no connected face",
        )
        _require(
            not consumer._pending and not consumer.monitor.counter("interests_sent"),
            f"consumer {script.consumer!r} already has fetch state",
        )
        edge = face_to_edge.get(id(consumer.face))
        _require(
            edge is not None,
            f"consumer {script.consumer!r}: face not on a compiled link",
        )
        _require(
            script.retry is None,
            f"consumer {script.consumer!r}: fetch retries are not supported",
        )
        _require(
            script.until is None,
            f"consumer {script.consumer!r}: a script cut-off time (until) "
            "is not supported",
        )
        steps = list(map(lowered.__getitem__, map(id, script.steps)))
        compiled.append(
            CompiledConsumer(name=script.consumer, edge=edge, steps=steps)
        )
    return compiled


def _check_acyclic_routes(
    class_hops: List[List[Tuple[int, ...]]],
    dest_kind: List[int],
    dest_idx: List[int],
) -> None:
    """Refuse route graphs where an interest could revisit a router.

    A revisit would make the reference's nonce-based retransmission test
    observable; on a per-name acyclic candidate graph every nonce visits
    every router at most once, so ``arrival face already in PIT faces``
    is exactly the reference predicate.  ``class_hops[router][class]``
    is the candidate graph of every name in the class, so one search per
    route class decides it for the whole vocabulary.
    """
    n_routers = len(class_hops)
    for hops_by_router in zip(*class_hops):  # one column per route class
        # Edges: router index -> successor router indices.
        successors: List[List[int]] = [
            [dest_idx[edge] for edge in hops if dest_kind[edge] == DEST_ROUTER]
            for hops in hops_by_router
        ]
        color = [0] * n_routers  # 0 unvisited, 1 in-stack, 2 done

        def visit(start: int) -> None:
            stack = [(start, iter(successors[start]))]
            color[start] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if color[nxt] == 1:
                        raise BatchCompileError(
                            "route graph has a cycle (interest could "
                            "revisit a router)"
                        )
                    if color[nxt] == 0:
                        color[nxt] = 1
                        stack.append((nxt, iter(successors[nxt])))
                        advanced = True
                        break
                if not advanced:
                    color[node] = 2
                    stack.pop()

        for start in range(n_routers):
            if color[start] == 0:
                visit(start)


def compile_topology(
    net: Network, scripts: Sequence[ConsumerScript]
) -> CompiledTopology:
    """Lower ``net`` + ``scripts`` for the batch kernel — the shape, and
    the binding read from ``net`` — or raise :class:`BatchCompileError`
    naming the first unsupported feature
    (:class:`~repro.sim.batch.script.NetworkSpentError` if ``net``
    already ran on the kernel)."""
    shape = _compile_shape(net, scripts)
    routers = shape.forwarders
    hop_flags = {router.count_origin_hops for router in routers}
    _require(
        len(hop_flags) <= 1,
        "count_origin_hops differs across routers (the kernel tracks "
        "origin hops network-wide or not at all)",
    )
    return _bind(
        shape,
        net.rng,
        link_streams=[
            link._stream if compiled.delay_kind != DELAY_FIXED else None
            for link, compiled in zip(net.links.values(), shape.links)
        ],
        strategies=[router.caching for router in routers],
        schemes=[router.scheme for router in routers],
        policy_streams=[
            router.cs.policy._stream if shaped.policy_kind == "random" else None
            for router, shaped in zip(routers, shape.routers)
        ],
        count_origin_hops=bool(hop_flags and hop_flags.pop()),
        net=net,
    )


def _compile_shape(
    net: Network, scripts: Sequence[ConsumerScript]
) -> TopologyShape:
    """The shape of ``net`` + ``scripts``, or refuse."""
    refuse_spent(net)
    _require(bool(scripts), "no consumer scripts given")
    _check_engine_fresh(net)
    routers, consumers, producers = _collect_entities(net)

    # Directed edges from links, in insertion order.
    links: List[CompiledLink] = []
    dest_kind: List[int] = []
    dest_idx: List[int] = []
    face_to_edge: Dict[int, int] = {}
    router_index = {id(r): i for i, r in enumerate(routers)}
    consumer_index = {id(c): i for i, c in enumerate(consumers)}
    producer_index = {id(p): i for i, p in enumerate(producers)}

    def _owner_ref(owner) -> Tuple[int, int]:
        key = id(owner)
        if key in router_index:
            return DEST_ROUTER, router_index[key]
        if key in consumer_index:
            return DEST_CONSUMER, consumer_index[key]
        if key in producer_index:
            return DEST_PRODUCER, producer_index[key]
        raise BatchCompileError(
            f"link endpoint owner {owner!r} is not a compiled entity"
        )

    for link in net.links.values():
        links.append(_compile_link(link))
        # Edge 2i: face_a sends, delivered to face_b's owner (and vice versa).
        for sender, receiver in ((link.face_a, link.face_b), (link.face_b, link.face_a)):
            kind, idx = _owner_ref(receiver.owner)
            face_to_edge[id(sender)] = len(dest_kind)
            dest_kind.append(kind)
            dest_idx.append(idx)

    router_shapes = [_router_shape(r) for r in routers]

    # Everything above is per link or per router, so a network that
    # cannot lower is refused before any per-name work is spent on it.
    names, lowered, name_class, class_reps = _intern_vocabulary(scripts, routers)
    class_hops: List[List[Tuple[int, ...]]] = []
    for router, shaped in zip(routers, router_shapes):
        hops = _class_next_hops(router, class_reps, face_to_edge)
        shaped.next_hops = [hops[cid] for cid in name_class]
        class_hops.append(hops)

    name_private: List[Optional[bool]] = [None] * len(names)
    compiled_producers = [
        _compile_producer(p, names, name_private) for p in producers
    ]

    compiled_consumers = _compile_consumer_scripts(
        net, scripts, lowered, face_to_edge
    )
    consumer_script_of_entity = [-1] * len(consumers)
    for pos, compiled_consumer in enumerate(compiled_consumers):
        entity = net[compiled_consumer.name]
        consumer_script_of_entity[consumer_index[id(entity)]] = pos
    _check_acyclic_routes(class_hops, dest_kind, dest_idx)

    return TopologyShape(
        names=names,
        name_private=[bool(flag) for flag in name_private],
        links=links,
        dest_kind=dest_kind,
        dest_idx=dest_idx,
        routers=router_shapes,
        consumers=compiled_consumers,
        producers=compiled_producers,
        consumer_script_of_entity=consumer_script_of_entity,
        forwarders=routers,
    )
