"""Full-topology simulator-core workloads (star, tree, fat tree).

Topology and script builders for the *packet-level* substrate — engine,
links, forwarders, CS/PIT/FIB — with many consumers fetching a shared
object universe.  Every :meth:`Link.transmit` is one packet-hop, so
packet-hops per second on these prices exactly the per-hop fast path the
full-topology experiments (Figure 3, amplification, overload) pay.

Two fixed topologies, both from the :mod:`repro.ndn.topology` registry:

* ``star`` — N consumers on jittery LAN links around one router R with
  the producer behind it (the Figure-1 shape at scale),
* ``tree`` — a 3-level router tree (root - 2 aggregation - 4 leaves, two
  consumers per leaf) on deterministic links, which maximizes equal-time
  event ties and therefore stresses the engine's insertion-order
  determinism.

A third case prices set-up at catalog scale: ``fat_tree`` (the k=4 fat
tree of :mod:`repro.ndn.topology`) driven by an Ircache stream through
:func:`~repro.sim.workload_driver.scripts_from_workload` — thousands of
distinct names over 20 routers, where compile time, not the kernel, is
what a per-name cost would show up in.

All are deterministic per seed and expressed as
:class:`~repro.sim.batch.script.ConsumerScript` workloads, so the same
topology+workload pair runs on either engine through
:func:`repro.sim.batch.run_scripts` (``kernel="reference"`` or
``"batch"``) with bit-identical
:class:`~repro.sim.batch.script.TopologyObservables`.  The perf
ledger's ``sim_packet`` workload times them, script building included,
and with ``--trace 1`` attributes the time per layer.  Both script
builders share one :class:`FetchStep` per distinct (name, private) pair,
so building a script and compiling it cost per distinct fetch, not per
request; only the fat tree's sleep gaps are one step per request.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.ndn.network import Network
from repro.ndn.topology import CONTENT_PREFIX, TOPOLOGIES, fat_tree
from repro.perf.parallel import build_scheme
from repro.sim.batch.script import ConsumerScript, FetchStep
from repro.sim.workload_driver import scripts_from_workload
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator

#: Prefix the sim-core object universe lives under.
SIMCORE_PREFIX = CONTENT_PREFIX


def simcore_scripts(
    consumer_names: List[str],
    requests_per_consumer: int,
    universe: int,
    timeout: float = 4000.0,
    private_period: int = 0,
) -> List[ConsumerScript]:
    """The canonical sim-core workload as declarative consumer scripts.

    Consumer ``j`` fetches object ``(i * 3 + j) % universe`` on step ``i``
    — a deterministic interleaving that mixes cache hits and misses
    across consumers without any RNG draws in the workload itself.
    ``timeout`` is each fetch's wait budget (set it below the topology
    RTT to exercise timeout, PIT expiry and retransmission);
    ``private_period`` > 0 marks every N-th fetch of the interleaving
    private.  Each distinct (object, private) fetch is one shared
    :class:`FetchStep`.
    """
    i = np.arange(requests_per_consumer)
    j = np.arange(len(consumer_names))[:, None]
    # One code per (object, private) pair: object * 2 + private.
    codes = (i * 3 + j) % universe * 2
    if private_period > 0:
        codes += (i + j) % private_period == 0
    fetches = {
        code: FetchStep(
            f"{SIMCORE_PREFIX}/obj-{code >> 1}", timeout=timeout, private=bool(code & 1)
        )
        for code in np.unique(codes).tolist()
    }
    return [
        ConsumerScript(consumer=name, steps=tuple(map(fetches.__getitem__, row)))
        for name, row in zip(consumer_names, codes.tolist())
    ]


def build_star(
    consumers: int = 16, seed: int = 0, cache_capacity: int = 64
) -> Tuple[Network, List[str], int]:
    """Star topology: returns ``(net, consumer_names, universe)``."""
    net = TOPOLOGIES["star"](
        seed=seed, cache_capacity=cache_capacity, consumers=consumers
    ).network
    return net, list(net.consumers), max(4, consumers * 4)


def build_tree(
    seed: int = 0, cache_capacity: int = 32
) -> Tuple[Network, List[str], int]:
    """3-level tree topology: returns ``(net, consumer_names, universe)``."""
    net = TOPOLOGIES["tree"](seed=seed, cache_capacity=cache_capacity).network
    return net, list(net.consumers), 32


def build_fat_tree_ircache(
    requests: int = 11_250, seed: int = 0
) -> Tuple[Network, List[ConsumerScript]]:
    """Fat tree x Ircache: returns ``(net, scripts)``.

    LCD placement, 256-object caches, a uniform scheme on the probe
    router; every host replays its share of one ``requests``-long
    Ircache stream (2000 users over a 20k-object catalog, so roughly
    two fetches in three name something new), every fifth fetch private.
    """
    net = fat_tree(
        seed=seed,
        scheme=build_scheme("uniform", seed=seed),
        cache_capacity=256,
        caching="lcd",
    ).network
    config = IrcacheConfig(
        requests=requests,
        users=2000,
        objects=20_000,
        sites=200,
        session_locality=0.3,
        duration_hours=1.0,
        seed=seed,
    )
    scripts = scripts_from_workload(
        IrcacheGenerator(config).stream(),
        list(net.consumers),
        uri_prefix=CONTENT_PREFIX,
        time_scale=1e-3,
        private_period=5,
    )
    return net, scripts
