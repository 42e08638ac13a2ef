"""The canonical overload scenario: legitimate traffic under interest flood.

One star topology exercises every overload mechanism at once::

    consumer c ──┐
    attacker a ──┤── router R ──┬── producer p   (/data, answers)
                 │              └── producer f   (/flood, silent)

The attacker floods distinct ``/flood/...`` names that producer ``f``
never answers, so every flood interest dangles in R's PIT until its
lifetime expires — the resource-exhaustion attack.  The consumer fetches
a small set of ``/data/...`` objects with retries and measures delivery.

:func:`run_overload_scenario` runs the scenario against a given router
configuration (unbounded baseline vs bounded/rate-limited/Nacking) with
the invariant checker installed, and returns everything ``repro validate``
and the overload tests assert on.  :data:`OVERLOAD_CONFIGS` names the
router configurations both run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.faults.retry import RetryPolicy
from repro.faults.schedule import FaultSchedule
from repro.faults.adversarial import CachePollutionWindow, InterestFloodWindow
from repro.ndn.admission import InterestRateLimit
from repro.ndn.link import FixedDelay
from repro.ndn.network import Network
from repro.sim.process import Timeout
from repro.validation.differential import CaseResult, DifferentialReport
from repro.validation.invariants import InvariantChecker

#: PIT capacity of the hardened configurations.
OVERLOAD_PIT_CAPACITY = 64

_HARDENED = dict(
    pit_capacity=OVERLOAD_PIT_CAPACITY,
    pit_overflow="evict-oldest-expiry",
    rate_limit=InterestRateLimit(rate=200.0, burst=50.0),
)

#: The router configurations pitted against the flood, as keyword sets for
#: :func:`run_overload_scenario`: the unbounded baseline the paper assumes,
#: a bounded PIT under each overflow policy (evict-oldest-expiry behind
#: per-face admission control; bare drop-new), and the hardened router
#: with a cache-pollution attack riding on the flood.
OVERLOAD_CONFIGS: Dict[str, dict] = {
    "unbounded-baseline": dict(pit_capacity=None),
    "bounded-evict": _HARDENED,
    "bounded-drop-new": dict(
        pit_capacity=OVERLOAD_PIT_CAPACITY, pit_overflow="drop-new"
    ),
    "bounded-polluted": dict(_HARDENED, pollution=True),
}


@dataclass
class OverloadResult:
    """Outcome of one overload-scenario run."""

    delivered: int
    attempted: int
    events: int
    router_summary: Dict[str, float]
    checker: InvariantChecker
    network: Network = field(repr=False)

    @property
    def delivery_rate(self) -> float:
        """Fraction of legitimate fetches that completed."""
        return self.delivered / self.attempted if self.attempted else 0.0

    @property
    def peak_pit_size(self) -> int:
        """High-water mark of the router's PIT."""
        return int(self.router_summary["pit_peak_size"])


def run_overload_scenario(
    pit_capacity: Optional[int] = None,
    pit_overflow: str = "evict-oldest-expiry",
    rate_limit: Optional[InterestRateLimit] = None,
    cs_capacity: int = 32,
    fetches: int = 200,
    fetch_catalog: int = 20,
    fetch_interval: float = 10.0,
    flood_start: float = 100.0,
    flood_end: float = 2100.0,
    flood_interval: float = 2.0,
    flood_lifetime: float = 2000.0,
    pollution: bool = False,
    seed: int = 7,
    check_interval: float = 250.0,
    checker: Optional[InvariantChecker] = None,
) -> OverloadResult:
    """Run the flood scenario against one router configuration.

    ``pit_capacity=None`` is the unbounded baseline the attack crushes;
    a bounded PIT plus ``rate_limit`` is the hardened configuration.
    With an unbounded PIT the flood sustains ~``flood_lifetime /
    flood_interval`` dangling entries, so e.g. the defaults drive the
    baseline peak to ~1000 — more than 10x a 64-entry bounded table.
    ``pollution=True`` adds a CS-churn attack on the ``/data`` prefix.
    The returned result carries the (already-run) invariant checker; the
    caller decides whether to ``assert_ok``.
    """
    net = Network()
    router = net.add_router(
        "R",
        capacity=cs_capacity,
        pit_capacity=pit_capacity,
        pit_overflow=pit_overflow,
        rate_limit=rate_limit,
    )
    consumer = net.add_consumer("c")
    net.add_consumer("a")
    net.add_producer("p", "/data", auto_generate=True)
    net.add_producer("f", "/flood", auto_generate=False)
    net.connect("c", "R", FixedDelay(1.0))
    net.connect("a", "R", FixedDelay(1.0))
    net.connect("R", "p", FixedDelay(5.0))
    net.connect("R", "f", FixedDelay(5.0))
    net.add_route("R", "/data", "p")
    net.add_route("R", "/flood", "f")

    schedule = FaultSchedule(
        [
            InterestFloodWindow(
                attacker="a",
                prefix="/flood",
                start=flood_start,
                end=flood_end,
                interval=flood_interval,
                lifetime=flood_lifetime,
                seed=seed,
            )
        ]
    )
    if pollution:
        schedule.add(
            CachePollutionWindow(
                attacker="a",
                prefix="/data",
                start=flood_start,
                end=flood_end,
                interval=flood_interval * 2,
                catalog=cs_capacity * 20,
                seed=seed + 1,
            )
        )
    net.apply_faults(schedule)

    tally = {"delivered": 0, "attempted": 0}

    def legitimate():
        retry = RetryPolicy(retries=5, timeout=60.0, backoff=2.0)
        for i in range(fetches):
            result = yield from consumer.fetch(
                f"/data/obj-{i % fetch_catalog}", retry=retry
            )
            tally["attempted"] += 1
            if result is not None:
                tally["delivered"] += 1
            yield Timeout(fetch_interval)

    net.spawn(legitimate(), label="legit-consumer")

    horizon = flood_end + flood_lifetime + 4000.0
    monitor = checker if checker is not None else InvariantChecker()
    monitor.install(net, interval=check_interval, horizon=horizon)
    net.run(until=horizon + 4000.0)
    monitor.check_network(net)

    return OverloadResult(
        delivered=tally["delivered"],
        attempted=tally["attempted"],
        events=net.engine.events_processed,
        router_summary=router.stats_summary(),
        checker=monitor,
        network=net,
    )


def validate_overload(config: str, seed: int = 7) -> DifferentialReport:
    """Run one :data:`OVERLOAD_CONFIGS` entry; every conservation-law
    violation the checker saw is a mismatch of the report's one case."""
    result = run_overload_scenario(seed=seed, **OVERLOAD_CONFIGS[config])
    return DifferentialReport(
        results=[
            CaseResult(config, [str(v) for v in result.checker.violations])
        ],
        note=(
            f"checks={result.checker.checks_run}, "
            f"delivery={result.delivery_rate:.3f}, "
            f"peak_pit={result.peak_pit_size}"
        ),
    )
