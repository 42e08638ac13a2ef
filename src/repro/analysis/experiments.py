"""High-level drivers: one function per paper figure.

These are what the benchmark harness and the examples call.  Each driver
returns a structured result object carrying both the data series (the
figure's content) and the headline numbers the paper quotes, plus a
``render()`` method producing the bench's printed table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.stats import PdfPair, pdf_pair, separation_score
from repro.analysis.tables import format_series, format_table
from repro.attacks.producer_probe import collect_producer_probe_distributions
from repro.attacks.timing import RttDistributions, collect_rtt_distributions
from repro.core.privacy.guarantees import (
    max_exponential_epsilon,
    solve_exponential_params,
    solve_uniform_K,
)
from repro.core.privacy.utility import (
    exponential_utility,
    uniform_utility,
)
from repro.core.schemes.registry import SchemeSpec
from repro.ndn.topology import FIG3_PANELS, TOPOLOGIES, AttackTopology
from repro.perf.parallel import ReplaySpec, run_replay_sweep
from repro.workload.ircache import IrcacheConfig
from repro.workload.marking import ContentMarking
from repro.workload.replay import ReplayStats
from repro.workload.streaming import Workload

import numpy as np


# ======================================================================
# Figure 3 — timing attack RTT distributions
# ======================================================================
@dataclass
class Fig3Result:
    """One Figure 3 panel: labeled RTT distributions and headline success."""

    setting: str
    description: str
    distributions: RttDistributions
    pdf: PdfPair
    bayes_success: float
    hit_mean: float
    miss_mean: float
    separation: float
    #: Simulation engine behind the samples: ``"batch"``, or
    #: ``"reference: <reason>"`` when the batch compiler had to refuse.
    engine: str = "batch"

    def render(self) -> str:
        """The panel as a printed table (PDF series + headline numbers)."""
        header = (
            f"Figure 3 [{self.setting}] — {self.description}\n"
            f"hit mean = {self.hit_mean:.3f} ms, miss mean = {self.miss_mean:.3f} ms, "
            f"separation d = {self.separation:.2f}\n"
            f"Bayes success probability = {self.bayes_success:.4f}"
        )
        table = format_series(
            "rtt_ms",
            [round(c, 3) for c in self.pdf.bin_centers],
            {
                "pdf_cache_hit": list(self.pdf.hit_density),
                "pdf_cache_miss": list(self.pdf.miss_density),
            },
        )
        return header + "\n" + table


#: Fig. 3(c) measures *producer* privacy with the fetch-twice probe;
#: every other panel runs the plain hit/miss campaign.
_FIG3_COLLECTORS = {"fig3c_wan_producer": collect_producer_probe_distributions}


def run_fig3(
    setting: str,
    objects_per_trial: int = 60,
    trials: int = 8,
    seed: int = 0,
    bins: int = 40,
) -> Fig3Result:
    """Run one Figure 3 panel's measurement campaign.

    ``setting`` is one of ``fig3a_lan``, ``fig3b_wan``,
    ``fig3c_wan_producer``, ``fig3d_local_host``.
    """
    if setting not in FIG3_PANELS:
        raise ValueError(
            f"unknown setting {setting!r}; choose from {sorted(FIG3_PANELS)}"
        )
    builder = TOPOLOGIES[setting]
    descriptions: List[str] = []

    def build(**kwargs) -> AttackTopology:
        topo = builder(**kwargs)
        descriptions.append(topo.description)
        return topo

    collector = _FIG3_COLLECTORS.get(setting, collect_rtt_distributions)
    dists = collector(
        build, objects_per_trial=objects_per_trial, trials=trials, base_seed=seed
    )
    pdf = pdf_pair(dists.hit_rtts, dists.miss_rtts, bins=bins)
    return Fig3Result(
        setting=setting,
        # The first trial is the topology at ``seed``.
        description=descriptions[0],
        distributions=dists,
        pdf=pdf,
        bayes_success=dists.bayes_success_probability,
        hit_mean=float(np.mean(dists.hit_rtts)),
        miss_mean=float(np.mean(dists.miss_rtts)),
        separation=separation_score(dists.hit_rtts, dists.miss_rtts),
        engine=dists.engine,
    )


# ======================================================================
# Figure 4 — utility of Uniform vs Exponential Random-Cache
# ======================================================================
@dataclass
class Fig4aResult:
    """Figure 4(a): u(c) curves at fixed δ for both schemes."""

    k: int
    delta: float
    c_values: List[int]
    uniform_K: int
    uniform_utilities: List[float]
    #: ε -> (α, K, utilities) for each exponential configuration.
    exponential: Dict[float, Tuple[float, Optional[int], List[float]]]

    def render(self) -> str:
        series = {"uniform": self.uniform_utilities}
        for eps, (_alpha, _K, utilities) in sorted(self.exponential.items()):
            series[f"expo(eps={eps})"] = utilities
        return format_series(
            "c",
            self.c_values,
            series,
            title=(
                f"Figure 4(a) — utility vs requests, k={self.k}, delta={self.delta} "
                f"(uniform K={self.uniform_K})"
            ),
        )


def run_fig4a(
    k: int,
    delta: float = 0.05,
    epsilons: Sequence[float] = (0.03, 0.04, 0.05),
    c_max: int = 100,
) -> Fig4aResult:
    """Figure 4(a): utility curves for Uniform and Exponential at fixed δ.

    The uniform scheme's K comes from Theorem VI.1 (K = 2k/δ); each
    exponential configuration solves (α, K) from Theorem VI.3 for its ε.
    """
    c_values = list(range(1, c_max + 1))
    K_uni = solve_uniform_K(k, delta)
    uniform_utilities = [uniform_utility(c, K_uni) for c in c_values]
    exponential: Dict[float, Tuple[float, Optional[int], List[float]]] = {}
    for eps in epsilons:
        alpha, K = solve_exponential_params(k, eps, delta)
        exponential[eps] = (
            alpha,
            K,
            [exponential_utility(c, alpha, K) for c in c_values],
        )
    return Fig4aResult(
        k=k,
        delta=delta,
        c_values=c_values,
        uniform_K=K_uni,
        uniform_utilities=uniform_utilities,
        exponential=exponential,
    )


@dataclass
class Fig4bResult:
    """Figure 4(b): utility difference (Expo − Uniform) at ε = −ln(1−δ)."""

    k: int
    c_values: List[int]
    #: δ -> difference series.
    differences: Dict[float, List[float]]

    def max_difference(self, delta: float) -> float:
        """Peak utility advantage of the exponential scheme for this δ."""
        return max(self.differences[delta])

    def render(self) -> str:
        series = {
            f"diff(delta={delta})": diffs
            for delta, diffs in sorted(self.differences.items())
        }
        return format_series(
            "c",
            self.c_values,
            series,
            title=(
                f"Figure 4(b) — max utility difference (expo − uniform), "
                f"k={self.k}, eps=-ln(1-delta)"
            ),
        )


def run_fig4b(
    k: int,
    deltas: Sequence[float] = (0.01, 0.03, 0.05),
    c_max: int = 100,
) -> Fig4bResult:
    """Figure 4(b): u_expo − u_uniform at the maximal feasible ε per δ.

    At ε = −ln(1−δ) only the untruncated (K = ∞) exponential attains δ,
    so the exponential side uses α = (1−δ)^(1/k) with K = None; the
    uniform side uses K = 2k/δ.
    """
    c_values = list(range(1, c_max + 1))
    differences: Dict[float, List[float]] = {}
    for delta in deltas:
        eps = max_exponential_epsilon(delta)
        alpha, K_expo = solve_exponential_params(k, eps, delta)
        K_uni = solve_uniform_K(k, delta)
        differences[delta] = [
            exponential_utility(c, alpha, K_expo) - uniform_utility(c, K_uni)
            for c in c_values
        ]
    return Fig4bResult(k=k, c_values=c_values, differences=differences)


# ======================================================================
# Figure 5 — trace-replay cache hit rates
# ======================================================================
#: Cache-size sweep of Section VII; None is the paper's "Inf" point.
FIG5_CACHE_SIZES: Tuple[Optional[int], ...] = (2000, 4000, 8000, 16000, 32000, None)


@dataclass
class Fig5Result:
    """One hit-rate sweep: scheme/configuration × cache size."""

    title: str
    cache_sizes: Tuple[Optional[int], ...]
    #: configuration label -> hit rate (%) per cache size.
    hit_rates: Dict[str, List[float]] = field(default_factory=dict)
    stats: Dict[Tuple[str, Optional[int]], ReplayStats] = field(default_factory=dict)
    #: The schemes the sweep ran, in first-use order.
    schemes: Tuple[SchemeSpec, ...] = ()

    def render(self) -> str:
        x = [size if size is not None else "Inf" for size in self.cache_sizes]
        return format_series("cache_size", x, self.hit_rates, title=self.title)


def _fig5_result(
    title: str,
    workload: Union[Workload, IrcacheConfig],
    specs: Sequence[ReplaySpec],
    cache_sizes: Sequence[Optional[int]],
    workers: Optional[int],
    sharded: bool,
) -> Fig5Result:
    """Run a figure-5 grid and file each point under its (label, size).

    An :class:`IrcacheConfig` goes through the on-disk trace cache (with
    ``sharded=True`` the memory-mapped shard cache, built by streaming
    generation); any other workload is compiled in RAM.  All pathways are
    bit-identical.
    """
    source = (
        {"trace_config": workload}
        if isinstance(workload, IrcacheConfig)
        else {"trace": workload}
    )
    sweep = run_replay_sweep(specs, workers=workers, sharded=sharded, **source)
    result = Fig5Result(
        title=title,
        cache_sizes=tuple(cache_sizes),
        schemes=tuple(dict.fromkeys(spec.scheme for spec in specs)),
    )
    for spec, stats in zip(specs, sweep):
        result.stats[(spec.label, spec.cache_size)] = stats
        result.hit_rates.setdefault(spec.label, []).append(100.0 * stats.hit_rate)
    return result


def fig5a_schemes(
    k: int = 5, epsilon: float = 0.005, delta: float = 0.01
) -> Tuple[SchemeSpec, ...]:
    """Figure 5(a)'s four algorithms, in plotting order."""
    return (
        SchemeSpec("no-privacy"),
        SchemeSpec("exponential", {"k": k, "epsilon": epsilon, "delta": delta}),
        SchemeSpec("uniform", {"k": k, "delta": delta}),
        SchemeSpec("always-delay"),
    )


def run_fig5a(
    trace: Union[Workload, IrcacheConfig],
    cache_sizes: Sequence[Optional[int]] = FIG5_CACHE_SIZES,
    k: int = 5,
    epsilon: float = 0.005,
    delta: float = 0.01,
    private_fraction: float = 0.2,
    seed: int = 0,
    workers: Optional[int] = None,
    sharded: bool = False,
) -> Fig5Result:
    """Figure 5(a): hit rate vs cache size for the four algorithms.

    The paper fixes k = 5 and ε = 0.005 but does not state δ; we use
    δ = 0.01 (the smallest round value ≥ the exponential scheme's floor
    1 − e^(−ε) ≈ 0.005) and record the choice in EXPERIMENTS.md.

    The (scheme × size) grid runs through
    :func:`repro.perf.parallel.run_replay_sweep`; ``workers`` (default:
    the CPU count) never changes the numbers.  ``trace`` may be any
    workload — a compiled trace, a
    :class:`~repro.workload.streaming.TsvWorkload` — or an
    :class:`IrcacheConfig` (cache-backed; combine with ``sharded=True``
    for the constant-memory streaming pathway at large scale).
    """
    marking = ContentMarking(private_fraction, salt=seed)
    specs = [
        ReplaySpec(
            scheme=scheme,
            cache_size=size,
            marking=marking,
            seed=seed,
            label=scheme.name,
        )
        for scheme in fig5a_schemes(k, epsilon, delta)
        for size in cache_sizes
    ]
    title = (
        f"Figure 5(a) — cache hit rate (%) vs cache size; k={k}, "
        f"eps={epsilon}, delta={delta}, {private_fraction:.0%} private"
    )
    return _fig5_result(title, trace, specs, cache_sizes, workers, sharded)


def run_fig5b(
    trace: Union[Workload, IrcacheConfig],
    cache_sizes: Sequence[Optional[int]] = FIG5_CACHE_SIZES,
    k: int = 5,
    epsilon: float = 0.005,
    delta: float = 0.01,
    private_fractions: Sequence[float] = (0.05, 0.10, 0.20, 0.40),
    seed: int = 0,
    workers: Optional[int] = None,
    sharded: bool = False,
) -> Fig5Result:
    """Figure 5(b): Exponential-Random-Cache under varying private share.

    Accepts the same workload forms as :func:`run_fig5a`.
    """
    scheme = SchemeSpec("exponential", {"k": k, "epsilon": epsilon, "delta": delta})
    specs = [
        ReplaySpec(
            scheme=scheme,
            cache_size=size,
            marking=ContentMarking(fraction, salt=seed),
            seed=seed,
            label=f"{fraction:.0%} private",
        )
        for fraction in private_fractions
        for size in cache_sizes
    ]
    title = (
        f"Figure 5(b) — Exponential-Random-Cache hit rate (%) vs cache "
        f"size; k={k}, eps={epsilon}, delta={delta}"
    )
    return _fig5_result(title, trace, specs, cache_sizes, workers, sharded)


# ======================================================================
# Section III amplification table
# ======================================================================
@dataclass
class AmplificationResult:
    """Success-vs-fragments table from a measured single-probe success."""

    p_single: float
    fragments: List[int]
    analytic_success: List[float]

    def render(self) -> str:
        return format_table(
            ["fragments_n", "Pr[success] = 1-(1-p)^n"],
            list(zip(self.fragments, self.analytic_success)),
            title=(
                f"Section III amplification — single-probe success "
                f"p = {self.p_single:.3f}"
            ),
        )


def run_amplification(p_single: float, max_fragments: int = 16) -> AmplificationResult:
    """The paper's amplification arithmetic from a measured p."""
    from repro.attacks.amplification import success_curve

    fragments = list(range(1, max_fragments + 1))
    return AmplificationResult(
        p_single=p_single,
        fragments=fragments,
        analytic_success=success_curve(p_single, max_fragments),
    )
