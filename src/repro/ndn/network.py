"""Network assembly: nodes, links, and routes by name.

:class:`Network` is the convenience layer the topology builders and
examples use: it owns the engine, RNG registry, and a registry of named
entities (forwarders and applications); ``connect`` wires two entities with
a link, and ``add_route`` installs FIB entries by *peer name* so topologies
read declaratively.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from repro.core.schemes.base import CacheScheme
from repro.ndn.admission import InterestRateLimit
from repro.ndn.apps.consumer import Consumer
from repro.ndn.apps.interactive import InteractiveEndpoint
from repro.ndn.apps.producer import Producer
from repro.ndn.cs import ContentStore
from repro.ndn.errors import TopologyError
from repro.ndn.forwarder import Forwarder
from repro.ndn.pit import Pit
from repro.ndn.link import DelayModel, Face, Link
from repro.ndn.name import Name, name_of
from repro.ndn.replacement import make_policy
from repro.ndn.strategy import (
    RANDOMIZED_STRATEGIES,
    CachingStrategy,
    strategy_of,
)
from repro.sim.engine import Engine
from repro.sim.monitor import Monitor
from repro.sim.rng import LazyStream, RngRegistry

Entity = Union[Forwarder, Consumer, Producer, InteractiveEndpoint]


class Network:
    """A named collection of NDN entities wired by links."""

    def __init__(
        self,
        engine: Optional[Engine] = None,
        rng: Optional[RngRegistry] = None,
        monitor: Optional[Monitor] = None,
    ) -> None:
        self.engine = engine if engine is not None else Engine()
        self.rng = rng if rng is not None else RngRegistry(0)
        self.monitor = monitor if monitor is not None else Monitor()
        self._entities: Dict[str, Entity] = {}
        # (a, b) -> (face at a, face at b); stored both directions.
        self._faces: Dict[Tuple[str, str], Tuple[Face, Face]] = {}
        self.links: Dict[str, Link] = {}
        # True once any router's caching strategy reads Data.origin_hops;
        # hop counting is then enabled on *every* router (present and
        # future) so the field is consistent along whole paths.
        self._count_origin_hops = False
        # True once the batch kernel ran this network: it consumed the
        # generators without filling the objects' caches or advancing the
        # engine (repro.sim.batch.script.NetworkSpentError).
        self._spent_on_batch = False

    # ------------------------------------------------------------------
    # Entity creation
    # ------------------------------------------------------------------
    def _register(self, name: str, entity: Entity) -> Entity:
        if name in self._entities:
            raise TopologyError(f"duplicate entity name {name!r}")
        self._entities[name] = entity
        return entity

    def add_router(
        self,
        name: str,
        capacity: Optional[int] = None,
        scheme: Optional[CacheScheme] = None,
        policy: str = "lru",
        honor_scope: bool = True,
        processing_delay: float = 0.0,
        strategy: str = "best-route",
        pit_capacity: Optional[int] = None,
        pit_overflow: str = "drop-new",
        rate_limit: Optional[InterestRateLimit] = None,
        nack_on_no_route: bool = False,
        caching: Union[str, CachingStrategy, None] = None,
    ) -> Forwarder:
        """Create a caching NDN router.

        ``caching`` selects the on-path cache-admission strategy
        (:mod:`repro.ndn.strategy`): a registered kind string (``"lce"``,
        ``"lcd"``, ``"probcache"``, ``"edge"``, ``"cl4m"``,
        ``"bernoulli"``) builds a per-router instance — the randomized
        kinds draw from the stream ``caching:{name}``
        (worker-count-independent, like the ``policy:{name}`` stream of
        ``random`` replacement and the link streams; each is built at its
        first draw) — or pass a prebuilt
        :class:`~repro.ndn.strategy.CachingStrategy`.  ``None`` keeps the
        paper's cache-everywhere baseline.  Installing a hop-counting
        strategy (LCD, ProbCache) turns ``Data.origin_hops`` maintenance
        on network-wide.

        ``pit_capacity``/``pit_overflow`` bound the pending-interest table
        (``None`` keeps the paper's unbounded table); ``rate_limit`` arms
        per-face interest admission control.  See
        :class:`~repro.ndn.forwarder.Forwarder` for the Nack semantics of
        each rejection path.
        """
        # Named streams are handed out only to the components that draw
        # (randomized admission, random replacement), as handles built at
        # the first draw: a stream's state depends on (root seed, name)
        # alone, so neither skipping an unused stream nor deferring one
        # changes any draw.
        caching = strategy_of(
            caching,
            rng=(
                LazyStream(self.rng, f"caching:{name}")
                if caching in RANDOMIZED_STRATEGIES
                else None
            ),
        )
        cs = ContentStore(
            capacity=capacity,
            policy=make_policy(
                policy,
                LazyStream(self.rng, f"policy:{name}") if policy == "random" else None,
            ),
        )
        router = Forwarder(
            engine=self.engine,
            name=name,
            cs=cs,
            scheme=scheme,
            honor_scope=honor_scope,
            processing_delay=processing_delay,
            strategy=strategy,
            pit=Pit(capacity=pit_capacity, overflow=pit_overflow),
            rate_limit=rate_limit,
            nack_on_no_route=nack_on_no_route,
            caching=caching,
        )
        self._register(name, router)
        if caching is not None and caching.needs_origin_hops:
            self._count_origin_hops = True
        if self._count_origin_hops:
            for node in self.routers.values():
                node.count_origin_hops = True
        return router

    def add_consumer(self, name: str) -> Consumer:
        """Create a consumer end host."""
        consumer = Consumer(self.engine, name=name)
        self._register(name, consumer)
        return consumer

    def add_producer(
        self,
        name: str,
        prefix: Union[str, Name],
        private: bool = False,
        auto_generate: bool = True,
        processing_delay: float = 0.0,
    ) -> Producer:
        """Create a producer end host serving ``prefix``."""
        producer = Producer(
            self.engine,
            prefix=prefix,
            producer_id=name,
            private=private,
            auto_generate=auto_generate,
            processing_delay=processing_delay,
        )
        self._register(name, producer)
        return producer

    def add_endpoint(self, name: str, endpoint: InteractiveEndpoint) -> InteractiveEndpoint:
        """Register a pre-built interactive endpoint under ``name``."""
        self._register(name, endpoint)
        return endpoint

    def __getitem__(self, name: str) -> Entity:
        try:
            return self._entities[name]
        except KeyError:
            raise TopologyError(f"unknown entity {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._entities

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def connect(
        self,
        a: str,
        b: str,
        delay_model: DelayModel,
        loss_rate: float = 0.0,
        loss_model=None,
    ) -> Tuple[Face, Face]:
        """Create a bidirectional link between entities ``a`` and ``b``.

        ``loss_model`` installs a stateful loss process (e.g.
        :class:`~repro.faults.loss.GilbertElliottLoss`) instead of the
        i.i.d. ``loss_rate``.
        """
        entity_a, entity_b = self[a], self[b]
        face_a = entity_a.create_face(label=f"{a}->{b}")
        face_b = entity_b.create_face(label=f"{b}->{a}")
        link = Link(
            engine=self.engine,
            face_a=face_a,
            face_b=face_b,
            delay_model=delay_model,
            rng=LazyStream(self.rng, f"link:{a}<->{b}"),
            loss_rate=loss_rate,
            loss_model=loss_model,
            name=f"{a}<->{b}",
        )
        self.links[link.name] = link
        self._faces[(a, b)] = (face_a, face_b)
        self._faces[(b, a)] = (face_b, face_a)
        return face_a, face_b

    def face_between(self, at: str, toward: str) -> Face:
        """The face on entity ``at`` that leads to entity ``toward``."""
        try:
            return self._faces[(at, toward)][0]
        except KeyError:
            raise TopologyError(f"no link between {at!r} and {toward!r}") from None

    def add_route(
        self, router: str, prefix: Union[str, Name], toward: str, cost: int = 0
    ) -> None:
        """Install a FIB route on ``router`` for ``prefix`` via ``toward``."""
        node = self[router]
        if not isinstance(node, Forwarder):
            raise TopologyError(f"{router!r} is not a forwarder")
        node.fib.add_route(name_of(prefix), self.face_between(router, toward), cost)

    def add_route_chain(self, prefix: Union[str, Name], *path: str) -> None:
        """Install routes for ``prefix`` along ``path`` (first to last).

        Every forwarder on the path gets a route toward its successor; end
        hosts on the path are skipped (they hold no FIB).
        """
        for hop, nxt in zip(path, path[1:]):
            if isinstance(self[hop], Forwarder):
                self.add_route(hop, prefix, nxt)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run the engine; returns the simulated stop time."""
        return self.engine.run(until=until)

    def spawn(self, generator, label: str = ""):
        """Start a simulation process on the network's engine."""
        return self.engine.spawn(generator, label=label)

    @property
    def routers(self) -> Dict[str, Forwarder]:
        """All registered forwarders by name."""
        return {
            name: entity
            for name, entity in self._entities.items()
            if isinstance(entity, Forwarder)
        }

    @property
    def consumers(self) -> Dict[str, Consumer]:
        """All registered consumers by name."""
        return {
            name: entity
            for name, entity in self._entities.items()
            if isinstance(entity, Consumer)
        }

    def router_summaries(self) -> Dict[str, Dict[str, float]]:
        """Per-router overload observables (PIT/CS sizes, drops, Nacks).

        One :meth:`~repro.ndn.forwarder.Forwarder.stats_summary` per router.
        """
        return {
            name: router.stats_summary()
            for name, router in self.routers.items()
        }

    def flush_caches(self) -> None:
        """Flush every router's CS and scheme state (between trials)."""
        for router in self.routers.values():
            router.flush_cache()

    def apply_faults(self, schedule) -> int:
        """Bind a :class:`~repro.faults.schedule.FaultSchedule` to this
        network; returns the number of fault events scheduled."""
        return schedule.apply(self)
