"""Declarative consumer workloads and the observables contract.

Both engines — the reference object-graph engine and the batch kernel —
interpret the same :class:`ConsumerScript` lists and report the same
:class:`TopologyObservables`, so "bit-identical" is a checkable statement
about concrete values rather than a claim about internals.  The scripts
run one outstanding interest per consumer, each fetch waiting its own
fixed timeout: that is exactly the workload shape the sim-core benchmarks
and the fig3 panels drive, and the restriction is what makes the kernel's
single-outstanding-fetch consumer state exact rather than approximate.
Two script-level fields, ``retry`` and ``until``, serve the reference
engine's attack harnesses; the batch compiler refuses both.  The
reference engine runs scripts by callback, never as processes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import inf
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.faults.retry import RetryPolicy
from repro.ndn.network import Network


class NetworkSpentError(Exception):
    """The network already ran on the batch kernel.

    The kernel keeps caches, PITs and the clock in its own arrays and
    never advances ``net.engine``, but it draws from the network's link,
    policy, strategy and scheme generators.  Another run would start from
    empty caches on streams the first run consumed: not a continuation
    but a different experiment.  Deliberately not a
    :class:`~repro.sim.batch.compile.BatchCompileError`, so
    ``kernel="auto"`` raises it rather than falling back.
    """


def refuse_spent(net: Network) -> None:
    """Raise :class:`NetworkSpentError` if ``net`` already ran batched."""
    if net._spent_on_batch:
        raise NetworkSpentError(
            "network already ran on the batch kernel (its generators are "
            "consumed and its caches were never filled): build a fresh one"
        )


def mark_spent(net: Network) -> None:
    """Claim ``net`` for one batch-kernel run; refuses a spent network."""
    refuse_spent(net)
    net._spent_on_batch = True


class ScriptError(ValueError):
    """A step or script value no engine can run (NaN, infinite, out of range)."""


@dataclass(frozen=True, slots=True)
class FetchStep:
    """One ``consumer.fetch`` call: name, wait budget, privacy marking."""

    name: str
    timeout: float = 4000.0
    lifetime: float = 4000.0
    private: bool = False

    def __post_init__(self) -> None:
        # Chained so that NaN (every comparison false) and None fail too.
        if self.timeout is None or not 0 < self.timeout < inf:
            raise ScriptError(
                f"fetch timeout must be positive and finite, got {self.timeout!r}"
            )
        if not 0 < self.lifetime < inf:
            raise ScriptError(
                f"interest lifetime must be positive and finite, got {self.lifetime!r}"
            )


@dataclass(frozen=True, slots=True)
class SleepStep:
    """Idle think time between fetches (one engine event)."""

    delay: float

    def __post_init__(self) -> None:
        if not 0 <= self.delay < inf:
            raise ScriptError(
                f"negative sleep or non-finite delay, got {self.delay!r}"
            )


Step = Union[FetchStep, SleepStep]


@dataclass(frozen=True)
class ConsumerScript:
    """A consumer's whole sequential workload, executed step by step.

    ``retry`` replaces every fetch's single attempt (and its step's
    ``timeout``) with the policy's retransmissions; ``until`` ends the
    script at the first fetch step reached at or after that time (ms).
    Only the reference engine runs either.
    """

    consumer: str
    steps: Tuple[Step, ...]
    retry: Optional[RetryPolicy] = None
    until: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.steps, tuple):
            object.__setattr__(self, "steps", tuple(self.steps))
        if self.until is not None and not 0 < self.until < inf:
            raise ScriptError(
                f"script {self.consumer!r}: until must be positive and "
                f"finite, got {self.until!r}"
            )


@dataclass
class TopologyObservables:
    """Everything the differential harness compares between engines.

    ``kernel`` records which engine actually produced the numbers
    ("reference" or "batch") and ``fallback_reason`` why the batch
    compiler refused when ``run_scripts`` fell back; both are excluded
    from comparison — they are how fallback transparency stays
    observable.
    """

    kernel: str
    #: Per-consumer completed fetches (fetch returned a result).
    delivered: Dict[str, int]
    #: Per-consumer RTT samples in completion order (bit-exact floats).
    rtts: Dict[str, List[float]]
    #: Per-link ``packets_sent`` (every transmit is one packet-hop).
    link_packets: Dict[str, int]
    #: Per-router non-zero monitor counters.
    router_counters: Dict[str, Dict[str, int]]
    #: Per-router :meth:`Forwarder.stats_summary` dicts.
    router_stats: Dict[str, Dict[str, float]]
    #: Engine events fired (cancelled events excluded), both lanes.
    events_processed: int
    #: Simulated time when the event queue drained.
    end_time: float
    #: The :class:`BatchCompileError` message behind a transparent
    #: fallback (``None`` when the requested engine ran).
    fallback_reason: Optional[str] = None

    @property
    def engine(self) -> str:
        """``kernel``, plus the compiler's reason after a fallback
        (``"batch"`` or ``"reference: <why it could not lower>"``)."""
        if self.fallback_reason is None:
            return self.kernel
        return f"{self.kernel}: {self.fallback_reason}"

    @property
    def total_delivered(self) -> int:
        """Completed fetches across all consumers."""
        return sum(self.delivered.values())

    @property
    def total_hops(self) -> int:
        """Packet-hops across all links (the benchmark numerator)."""
        return sum(self.link_packets.values())

    @property
    def total_cache_hits(self) -> int:
        """Observable cache hits across all routers."""
        return sum(c.get("cs_hit", 0) for c in self.router_counters.values())


def diff_observables(
    oracle: TopologyObservables,
    fast: TopologyObservables,
    sides: Tuple[str, str] = ("oracle", "batch"),
) -> List[str]:
    """Field-by-field differences (``kernel``/``fallback_reason``
    excluded); empty when bit-identical.  Each line names the two runs
    by ``sides``."""
    mismatches: List[str] = []
    for f in fields(TopologyObservables):
        if f.name in ("kernel", "fallback_reason"):
            continue
        a = getattr(oracle, f.name)
        b = getattr(fast, f.name)
        if a != b:
            mismatches.append(_describe_mismatch(f.name, a, b, sides))
    return mismatches


def _describe_mismatch(field_name: str, a, b, sides: Tuple[str, str]) -> str:
    """A compact, debuggable description of one mismatching field."""
    left, right = sides
    if isinstance(a, dict) and isinstance(b, dict):
        keys = sorted(set(a) | set(b), key=str)
        parts = []
        for key in keys:
            va, vb = a.get(key), b.get(key)
            if va != vb:
                parts.append(f"{key}: {left}={va!r} {right}={vb!r}")
            if len(parts) >= 4:
                parts.append("...")
                break
        return f"{field_name}: " + "; ".join(parts)
    return f"{field_name}: {left}={a!r} {right}={b!r}"


def _run_script(
    script: ConsumerScript, consumer, delivered: Dict[str, int], rtts: List[float]
) -> None:
    """Run one script on the reference engine: ``advance`` runs it to its
    next sleep or fetch, whose end calls it back (the first call is inline)
    and records the fetch's RTT in ``rtts``."""
    engine = consumer.engine
    until = inf if script.until is None else script.until
    retry = script.retry
    steps = iter(script.steps)
    name = script.consumer

    def advance(result=None) -> None:
        if result is not None:
            delivered[name] += 1
            rtts.append(result.rtt)
        step = next(steps, None)
        if isinstance(step, SleepStep):
            engine.schedule_fire_and_forget(step.delay, advance)
        elif step is not None and engine.now < until:
            consumer.start_fetch(
                step.name, advance, None, step.private, step.lifetime,
                step.timeout, retry,
            )

    advance()


def run_scripts_reference(
    net: Network, scripts: Sequence[ConsumerScript]
) -> TopologyObservables:
    """Run the scripts on the reference engine (the oracle path).

    Scripts start in list order, each run inline to its first sleep or
    fetch, then by callback (fetches through :meth:`Consumer.start_fetch`).
    The run drains the event queue, faults, agents and audits scheduled on
    ``net`` beforehand included.  A network the reference engine already
    ran continues from its state, its scripts' RTTs included; one the
    batch kernel ran is refused.
    """
    refuse_spent(net)
    delivered = {s.consumer: 0 for s in scripts}
    rtts = net._script_rtts
    for script in scripts:
        _run_script(
            script, net[script.consumer], delivered,
            rtts.setdefault(script.consumer, []),
        )
    end = net.run()
    return TopologyObservables(
        kernel="reference",
        delivered=delivered,
        rtts={s.consumer: list(rtts[s.consumer]) for s in scripts},
        link_packets={name: link.packets_sent for name, link in net.links.items()},
        router_counters={
            name: {k: v for k, v in router.monitor.counters.items() if v}
            for name, router in net.routers.items()
        },
        router_stats=net.router_summaries(),
        events_processed=net.engine.events_processed,
        end_time=end,
    )
