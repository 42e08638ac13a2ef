"""Run shape shared by the five workloads: set-up, identical rounds, spans.

One workload run is: set up three to seven times (each from cold, in its
own temp directory; the last one is kept), then repeat identical
rounds until the time budget is spent, then — in a traced run only — the
extra oracle/reference legs.  Every rate is reported as the median over
rounds, with its quartiles and sample count beside it.

Spans are recorded here, around the calls into ``repro``; nothing inside
``src/`` is instrumented.  A :class:`Tracer` always times its spans (the
end-to-end metrics need the walls); it *keeps* them only in a traced run.

Every rate is over a span's wall time **net of hypervisor steal**
(:attr:`Span.net`), **at the reference host speed**.  The reference box
is a 2-vCPU VM on a shared host.  The host takes the vCPU away for 2-35%
of a second, minute by minute: that time is measured (``/proc/stat``),
is not the program's, and is zero on a box that does not report it.  The
host also runs the vCPU slower when its neighbours are busy, by up to a
half for minutes at a time, and reports that nowhere: so a fixed loop
(:func:`_calibration_slice`) runs in short bursts between the program's
calls, and each round's numbers are rescaled by how slow that loop ran
during the round (:meth:`Tracer.host_slowdown`).  See README.md for what
each step bought.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter, thread_time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type

ROOT = Path(__file__).resolve().parents[2]
#: Everything a run writes (temp dirs, result files, ``trace.json``).
OUT_DIR = Path(__file__).resolve().parent / "out"

SCHEMA_VERSION = 1
#: Set up at least three times; a cheap set-up up to seven, while all of
#: them together stay under the budget.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 7, 3.0
MIN_ROUNDS = 3
#: ``--quick`` divides every size by this and stamps the output
#: ``"comparable": false``.
QUICK_DIVISOR = 20
#: Metrics every workload emits (the rest are declared per workload).
UNIVERSAL_END_TO_END = ("setup_s", "peak_rss_mb")
UNIVERSAL_PER_LAYER = ("trace_overhead_share",)
#: Spans of a traced run must account for this share of its wall time.
MIN_SPAN_COVERAGE = 0.95
#: Units of the metrics that are times (rates end in ``/s``).
TIME_UNITS = ("s", "ms", "us")


def load_spec() -> dict:
    """``BENCHMARK.json``: the declared workloads, metrics, units, bounds."""
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
#: ``/proc/stat`` counts steal in 10 ms ticks; a span shorter than this
#: is left as measured rather than corrected by a tick or two.
MIN_NETTED_S = 0.1


def stolen_s() -> float:
    """Seconds the hypervisor has kept this process's CPUs from the VM so
    far (mean over the CPUs it may run on); 0.0 where not reported."""
    cpus = {f"cpu{n}" for n in os.sched_getaffinity(0)}
    ticks = []
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            for line in stat:
                fields = line.split()
                if fields[0] in cpus and len(fields) > 8:
                    ticks.append(int(fields[8]))
    except OSError:
        return 0.0
    return sum(ticks) / len(ticks) / os.sysconf("SC_CLK_TCK") if ticks else 0.0


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Share of the measured time spent in the calibration loop.
CALIBRATION_SHARE = 0.05
#: A burst interrupts the program's calls no more often than this.
CALIBRATION_GAP_S = 0.03
#: A sampling thread runs one slice this often (3% of one CPU).
SAMPLING_PERIOD_S = 0.05
#: One slice of the loop on the reference box while its host is calm.
CALIBRATION_REFERENCE_S = 1.5e-3
_CHAIN_SLOTS = 1 << 16


@functools.lru_cache(maxsize=1)
def _calibration_tables() -> Tuple[List[int], Dict[int, int]]:
    """A chain that visits every slot once, in shuffled order, and a
    table keyed by slot: a few megabytes, read-only once built."""
    order = list(range(_CHAIN_SLOTS))
    random.Random(0).shuffle(order)
    chain = [0] * _CHAIN_SLOTS
    for here, there in zip(order, order[1:] + order[:1]):
        chain[here] = there
    return chain, {slot: slot for slot in order}


def _calibration_slice(chain: List[int], table: Dict[int, int], at: int) -> int:
    """One slice of the calibration loop, from slot ``at`` of the chain.

    Half interpreter work in a small footprint, half a pointer chase
    through a few megabytes: the workloads are mixes of the two, and a
    busy neighbour slows the second more.  Touches nothing of ``repro``,
    so no change to the program moves it."""
    total = 0
    small: Dict[int, int] = {}
    for i in range(6000):
        total += i * i
        small[i & 1023] = total
    for _ in range(3000):
        at = chain[at]
        total += table[at]
    return at


class Span:
    __slots__ = ("id", "name", "parent", "group", "start", "end", "stolen", "calibration")

    def __init__(
        self, span_id: int, name: str, parent: Optional[int], group: bool
    ) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        #: A group only holds other spans; its self time is ledger code.
        self.group = group
        self.start = 0.0
        self.end = 0.0
        self.stolen = 0.0
        #: Time inside this span that went to calibration bursts.
        self.calibration = 0.0

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def net(self) -> float:
        """Wall time net of hypervisor steal and of the ledger's own
        calibration bursts: what rates are over."""
        wall = self.end - self.start - self.calibration
        return wall - self.stolen if wall >= MIN_NETTED_S else wall


class Tracer:
    """Times spans; keeps them (for ``trace.json``) only when ``record``.

    Between spans it samples the host's speed: whenever a span that is
    not a group closes and :data:`CALIBRATION_GAP_S` has passed since
    the last burst, the calibration loop runs for
    :data:`CALIBRATION_SHARE` of that time."""

    def __init__(self, run_id: str, record: bool) -> None:
        self.run_id = run_id
        self.record = record
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 0
        self._calibrated_at = perf_counter()
        self._calibration_s = 0.0  # in bursts so far, net of steal
        self._slices: List[float] = []  # since host_slowdown() was last read
        self._chain, self._table = _calibration_tables()
        self._chain_at = 0

    def _open(self, name: str, group: bool) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(self._next_id, name, parent, group)
        self._next_id += 1
        return span

    @contextmanager
    def span(self, name: str, group: bool = False) -> Iterator[Span]:
        span = self._open(name, group)
        self._stack.append(span.id)
        calibration = self._calibration_s
        stolen = stolen_s()
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            span.stolen = stolen_s() - stolen
            span.calibration = self._calibration_s - calibration
            self._stack.pop()
            if self.record:
                self.spans.append(span)
            if not group and span.end - self._calibrated_at >= CALIBRATION_GAP_S:
                self.calibrate()

    def calibrate(self) -> None:
        """Run the calibration loop for its share of the time since the
        last burst (one slice at least).  A slice is timed on the thread's
        CPU clock, which leaves stolen time out to the nanosecond."""
        span = self._open("ledger.calibration", group=False)
        stolen = stolen_s()
        span.start = perf_counter()
        # Capped: a teardown between two set-ups has no spans and needs none.
        budget = min(span.start - self._calibrated_at, 5.0) * CALIBRATION_SHARE
        while True:
            before = thread_time()
            self._chain_at = _calibration_slice(self._chain, self._table, self._chain_at)
            self._slices.append(thread_time() - before)
            span.end = perf_counter()
            if span.end - span.start >= budget:
                break
        span.stolen = stolen_s() - stolen
        self._calibration_s += span.wall - span.stolen
        self._calibrated_at = span.end
        if self.record:
            self.spans.append(span)

    @contextmanager
    def sampling(self) -> Iterator[None]:
        """Sample the host's speed from a second thread, a slice every
        :data:`SAMPLING_PERIOD_S`, while the caller waits on other
        processes (a pool's workers): bursts between such calls would
        sample the host only while the workers are idle."""
        slices: List[float] = []
        stop = threading.Event()

        def sample() -> None:
            at = 0
            while not stop.wait(SAMPLING_PERIOD_S):
                before = thread_time()
                at = _calibration_slice(self._chain, self._table, at)
                slices.append(thread_time() - before)

        thread = threading.Thread(target=sample, name="ledger-calibration")
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()
            self._slices += slices
            self._calibrated_at = perf_counter()

    def host_slowdown(self) -> float:
        """How slow the host ran since this was last asked: the mean
        calibration slice over the reference slice.  Ends with a burst if
        the time up to now is not sampled yet."""
        if not self._slices or perf_counter() - self._calibrated_at >= CALIBRATION_GAP_S:
            self.calibrate()
        slices, self._slices = self._slices, []
        return statistics.fmean(slices) / CALIBRATION_REFERENCE_S

    def self_times(self) -> Dict[int, float]:
        """Span id → its duration minus the part its children cover."""
        own = {span.id: span.wall for span in self.spans}
        for span in self.spans:
            if span.parent in own:
                own[span.parent] -= span.wall
        return own

    def coverage(self, root: Span) -> float:
        """Share of ``root``'s wall that is the self time of spans around
        calls into the program or the calibration loop (the rest is the
        groups' self time: ledger code between those calls)."""
        own = self.self_times()
        between = sum(own[span.id] for span in self.spans if span.group)
        return 1.0 - between / root.wall

    def dump(self) -> dict:
        origin = min((span.start for span in self.spans), default=0.0)
        own = self.self_times()
        return {
            "run_id": self.run_id,
            "spans": [
                {
                    "id": span.id,
                    "name": span.name,
                    "parent": span.parent,
                    "group": span.group,
                    "start": span.start - origin,
                    "end": span.end - origin,
                    "stolen_s": span.stolen,
                    "self_s": own[span.id],
                }
                for span in sorted(self.spans, key=lambda s: s.id)
            ],
        }


# ----------------------------------------------------------------------
# Samples and checks
# ----------------------------------------------------------------------
class Samples(dict):
    """Metric name → the values measured for it, one per round."""

    def add(self, name: str, value: float) -> None:
        self.setdefault(name, []).append(value)


def summarize(samples: Sequence[float]) -> dict:
    """Median, quartiles and count — the shape every metric is stored in."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "value": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "n_samples": len(samples),
    }


class Checks:
    """Operations attempted/failed and the correctness gates that broke."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.broken: List[str] = []

    def ops(self, attempted: int, failed: int, what: str) -> None:
        """``attempted`` operations of which ``failed`` did ``what``."""
        self.attempted += attempted
        self.failed += failed
        self.gate(failed == 0, what)

    def op(self, ok: bool, what: str) -> None:
        self.ops(1, 0 if ok else 1, what)

    def gate(self, ok: bool, what: str) -> None:
        if not ok and what not in self.broken:
            self.broken.append(what)


class Workload:
    """One named workload.  Subclasses fill in the four phases."""

    name = ""
    #: Declared metrics beyond the universal ones; a run must emit
    #: exactly these (checked against ``BENCHMARK.json`` at start-up).
    end_to_end: Tuple[str, ...] = ()
    per_layer: Tuple[str, ...] = ()
    #: Keep the run on one CPU, so that the steal netted out of its spans
    #: is that CPU's.  False for a workload that runs a process pool.
    pinned = True

    def __init__(self, seed: int, quick: bool, tmp: Path, checks: Checks) -> None:
        self.seed = seed
        self.div = QUICK_DIVISOR if quick else 1
        self.tmp = tmp
        self.checks = checks

    def setup(self, tr: Tracer, out: Samples) -> None:
        """Everything before the timed phase, one warm-up pass included."""

    def round(self, tr: Tracer, out: Samples) -> None:
        """One timed round: same inputs every call.  Adds one sample per
        end-to-end metric, and per per-layer metric when ``tr.record``."""
        raise NotImplementedError

    def extras(self, tr: Tracer, out: Samples) -> None:
        """Traced run only: oracle/reference/serial legs."""

    def teardown(self) -> None:
        """Release what :meth:`setup` opened."""


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
def _peak_rss_mb() -> float:
    """Largest process of this workload's tree (pool workers included).

    This process's own peak is ``VmHWM``: ``ru_maxrss`` survives ``exec``,
    so a run spawned by a larger parent would report the parent's."""
    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    own_kib = int(line.split()[1])
                    break
    except OSError:
        pass
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kib, children_kib) / 1024.0


def _at_reference_speed(
    tr: Tracer, out: Samples, units: Dict[str, str], name: str, phase
) -> Tuple[Span, float]:
    """Run ``phase(tr, out)`` — a set-up, a round, the extra legs — in a
    group span, then rescale what it added to ``out`` to the reference
    host speed: rates up, times down, by the host's slowdown over the
    same stretch.  Counts and ratios stay.  Returns the span and the
    slowdown."""
    marks = {metric: len(values) for metric, values in out.items()}
    with tr.span(name, group=True) as span:
        phase(tr, out)
    slowdown = tr.host_slowdown()
    for metric, values in out.items():
        unit = units.get(metric, "")
        if unit.endswith("/s"):
            scale = slowdown
        elif unit in TIME_UNITS:
            scale = 1.0 / slowdown
        else:
            continue
        for i in range(marks.get(metric, 0), len(values)):
            values[i] *= scale
    return span, slowdown


def _rounds(
    workload: Workload,
    tr: Tracer,
    out: Samples,
    units: Dict[str, str],
    budget_s: float,
    floor: int,
) -> Tuple[List[float], List[float]]:
    """Repeat the round until the next one would overrun ``budget_s``;
    returns the rounds' times (net of steal and at the reference speed,
    like every rate) and the host's slowdown during each."""
    walls: List[float] = []
    times: List[float] = []
    slowdowns: List[float] = []
    start = perf_counter()
    while True:
        span, slowdown = _at_reference_speed(tr, out, units, "round", workload.round)
        walls.append(span.wall)
        times.append(span.net / slowdown)
        slowdowns.append(slowdown)
        spent = perf_counter() - start
        if len(walls) >= floor and spent + statistics.median(walls) > budget_s:
            return times, slowdowns


def run_workload(
    cls: Type[Workload],
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool,
    import_s: float,
    units: Dict[str, str],
) -> Tuple[dict, Optional[dict]]:
    """Run ``cls`` once; returns ``(record, trace_dump)``.

    ``record`` is the workload's entry in a result file.  An untraced run
    fills ``end_to_end``; a traced run fills ``per_layer`` (medians over
    the traced rounds) and compares traced with untraced round times.
    """
    OUT_DIR.mkdir(exist_ok=True)
    if cls.pinned:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run_id = f"{cls.name}-seed{seed}"
    checks = Checks()
    tr = Tracer(run_id, record=False)
    setup_out = Samples()
    setup_walls: List[float] = []
    workload: Optional[Workload] = None
    tmp: Optional[Path] = None
    try:
        started = perf_counter()
        while len(setup_walls) < MIN_SETUPS or (
            len(setup_walls) < MAX_SETUPS and perf_counter() - started < SETUP_BUDGET_S
        ):
            if workload is not None:
                workload.teardown()
                shutil.rmtree(tmp, ignore_errors=True)
            tmp = Path(tempfile.mkdtemp(prefix=f"{cls.name}-", dir=OUT_DIR))
            workload = cls(seed, quick, tmp, checks)
            span, slowdown = _at_reference_speed(
                tr, setup_out, units, "setup", workload.setup
            )
            setup_walls.append((import_s + span.net) / slowdown)

        out = Samples()
        trace_dump = None
        if not trace:
            times, slowdowns = _rounds(workload, tr, out, units, seconds, MIN_ROUNDS)
            out["setup_s"] = setup_walls
            out["peak_rss_mb"] = [_peak_rss_mb()]
            declared = UNIVERSAL_END_TO_END + cls.end_to_end
        else:
            # A third of the budget each: untraced rounds (the overhead
            # baseline), traced rounds, and the extra legs.
            plain, _ = _rounds(workload, tr, Samples(), units, seconds / 3, 2)
            tr = Tracer(run_id, record=True)
            with tr.span("traced", group=True) as root:
                times, slowdowns = _rounds(workload, tr, out, units, seconds / 3, 2)
                _at_reference_speed(tr, out, units, "extras", workload.extras)
            for name in cls.end_to_end:
                out.pop(name, None)
            for name, values in setup_out.items():
                out[name] = values
            out.add(
                "trace_overhead_share",
                statistics.median(times) / statistics.median(plain) - 1.0,
            )
            coverage = tr.coverage(root)
            # At --quick sizes the ledger's own code between calls is a
            # larger share of a round; the bar is for comparable runs.
            checks.gate(
                quick or coverage >= MIN_SPAN_COVERAGE,
                f"spans cover {coverage:.1%} of the traced wall "
                f"(need {MIN_SPAN_COVERAGE:.0%})",
            )
            trace_dump = tr.dump()
            trace_dump["span_coverage"] = coverage
            declared = UNIVERSAL_PER_LAYER + cls.per_layer
    finally:
        if workload is not None:
            workload.teardown()
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)

    missing = sorted(set(declared) - set(out))
    extra = sorted(set(out) - set(declared))
    checks.gate(not missing, f"declared metrics not emitted: {missing}")
    checks.gate(not extra, f"undeclared metrics emitted: {extra}")
    metrics = {}
    for name in declared:
        if name not in out:
            continue
        metrics[name] = {"unit": units[name], **summarize(out[name])}
        if units[name] == "count":
            # Rounds are identical, so an exact count cannot move.
            checks.gate(
                len(set(out[name])) == 1,
                f"{name} varied across identical rounds: {sorted(set(out[name]))}",
            )
    record = {
        "correct": not checks.broken,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failed_share": checks.failed / checks.attempted if checks.attempted else 0.0,
        "broken_gates": checks.broken,
        "rounds": len(times),
        "round_s": summarize(times),
        "host_slowdown": summarize(slowdowns),
        "per_layer" if trace else "end_to_end": metrics,
    }
    return record, trace_dump


def environment(seed: int, quick: bool, seconds: float, git_rev: str) -> dict:
    """The header every result file carries."""
    return {
        "schema_version": SCHEMA_VERSION,
        "git_rev": git_rev,
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "comparable": not quick,
    }


def print_metrics(title: str, metrics: Dict[str, dict]) -> None:
    print(f"\n{title}")
    width = max((len(name) for name in metrics), default=0)
    for name, m in metrics.items():
        print(
            f"  {name:<{width}}  {m['value']:>16.6g} {m['unit']:<14}"
            f" q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n_samples']}"
        )
