"""The canonical overload scenario: legitimate traffic under interest flood.

The registry's :func:`~repro.ndn.topology.overload_star` exercises every
overload mechanism at once.  The attacker ``a`` floods distinct
``/flood/...`` names that producer ``f`` never answers, so every flood
interest dangles in R's PIT until its lifetime expires — the
resource-exhaustion attack.  The consumer ``c`` is one script cycling
through 20 ``/content/...`` objects with retries.

:func:`run_overload_scenario` runs the scenario against a given router
configuration (unbounded baseline vs bounded/rate-limited/Nacking) with
the invariant checker installed, and returns everything ``repro validate``
and the overload tests assert on.  :data:`OVERLOAD_CONFIGS` names the
router configurations both run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.faults.retry import RetryPolicy
from repro.faults.schedule import FaultSchedule
from repro.faults.adversarial import CachePollutionWindow, InterestFloodWindow
from repro.ndn.admission import InterestRateLimit
from repro.ndn.topology import CONTENT_PREFIX, TOPOLOGIES
from repro.sim.batch.script import ConsumerScript, FetchStep, SleepStep
from repro.sim.batch.script import run_scripts_reference
from repro.validation.differential import CaseResult, DifferentialReport
from repro.validation.invariants import InvariantChecker

#: PIT capacity of the hardened configurations, and R's CS capacity.
OVERLOAD_PIT_CAPACITY = 64
CS_CAPACITY = 32
#: Legitimate fetches, the think time (ms) after each, and how often (ms)
#: the invariant checker audits.
FETCHES = 200
FETCH_INTERVAL = 10.0
CHECK_INTERVAL = 250.0
#: The flood window (ms): one interest every ``FLOOD_INTERVAL``, each
#: living ``FLOOD_LIFETIME``, so an unbounded PIT holds about 1000 at
#: once, more than 10x a 64-entry bounded table.
FLOOD_START = 100.0
FLOOD_END = 2100.0
FLOOD_INTERVAL = 2.0
FLOOD_LIFETIME = 2000.0

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
    pollution: bool = False,
    seed: int = 7,
) -> OverloadResult:
    """Run the flood scenario against one router configuration.

    ``pit_capacity=None`` is the unbounded baseline the attack crushes;
    a bounded PIT plus ``rate_limit`` is the hardened configuration.
    ``pollution=True`` adds a CS-churn attack on the content prefix.
    The returned result carries the (already-run) invariant checker; the
    caller decides whether to ``assert_ok``.
    """
    net = TOPOLOGIES["overload_star"](
        seed=seed, cache_capacity=CS_CAPACITY, pit_capacity=pit_capacity,
        pit_overflow=pit_overflow, rate_limit=rate_limit,
    ).network
    window = dict(attacker="a", start=FLOOD_START, end=FLOOD_END)
    faults = [
        InterestFloodWindow(
            prefix="/flood", interval=FLOOD_INTERVAL, lifetime=FLOOD_LIFETIME,
            seed=seed, **window,
        )
    ]
    if pollution:
        faults.append(
            CachePollutionWindow(
                prefix=CONTENT_PREFIX, interval=FLOOD_INTERVAL * 2,
                catalog=CS_CAPACITY * 20, seed=seed + 1, **window,
            )
        )
    FaultSchedule(faults).apply(net)
    checker = InvariantChecker()
    checker.install(
        net, interval=CHECK_INTERVAL, horizon=FLOOD_END + FLOOD_LIFETIME + 4000.0
    )

    objects = [FetchStep(f"{CONTENT_PREFIX}/obj-{i}") for i in range(20)]
    pause = SleepStep(FETCH_INTERVAL)
    script = ConsumerScript(
        consumer="c",
        steps=[s for i in range(FETCHES) for s in (objects[i % 20], pause)],
        retry=RetryPolicy(retries=5, timeout=60.0, backoff=2.0),
    )
    observed = run_scripts_reference(net, [script])
    checker.check_network(net)

    delivered = observed.delivered["c"]
    return OverloadResult(
        delivered=delivered,
        # A fetch that returned either delivered or spent its retries.
        attempted=delivered + net["c"].monitor.counter("fetch_failures"),
        events=observed.events_processed,
        router_summary=observed.router_stats["R"],
        checker=checker,
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
