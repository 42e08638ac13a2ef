"""The producer-privacy probe (Section III, experiment 3 / Figure 3(c)).

Here the adversary is far from the producer P, which is adjacent to router
R.  Adv wants to learn whether *anyone* recently requested content C
produced by P.  If so, C sits in R's cache and Adv's fetch saves exactly
the R↔P leg; if not, the interest travels one link farther.  Because that
single short link hides inside several jittery WAN hops, a single probe
succeeds only ≈59% of the time — the paper then amplifies over fragments
(:mod:`repro.attacks.amplification`).

The fetch-twice procedure the paper describes is also implemented: Adv
fetches C twice — the second fetch is a guaranteed R-cache hit (Adv's own
first fetch cached it) and serves as a personal reference delay; Adv then
decides "recently requested" iff d1 − d2 is below half the expected R↔P
round trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.attacks.timing import RttDistributions, pooled_campaigns
from repro.ndn.topology import AttackTopology
from repro.sim.process import Timeout


def collect_producer_probe_distributions(
    topology_builder: Callable[..., AttackTopology],
    objects_per_trial: int = 50,
    trials: int = 10,
    base_seed: int = 0,
    probe_gap: float = 5.0,
    builder_kwargs: Optional[dict] = None,
) -> RttDistributions:
    """First-probe delay distributions under both ground truths.

    Per trial: U (a consumer behind its own access path) prefetches half
    the objects through R.  Adv then fetches every object once; first-probe
    delays are labeled **hit** (object was recently requested, cached at R)
    or **miss** (Adv's interest had to reach P) — the consumer-privacy
    panels' scripted campaign (:func:`~repro.attacks.timing.pooled_campaigns`)
    with WAN-scale waits.
    """
    if objects_per_trial < 2:
        raise ValueError(f"objects_per_trial must be >= 2, got {objects_per_trial}")
    half = objects_per_trial // 2
    return pooled_campaigns(
        topology_builder,
        trials,
        base_seed,
        builder_kwargs,
        stem="pp",
        count=half,
        warmup=5000.0 + half * (probe_gap + 500.0),
        gap=probe_gap,
        timeout=10_000.0,
    )


@dataclass(frozen=True)
class FetchTwiceVerdict:
    """Outcome of the paper's fetch-twice producer probe."""

    target: str
    d1: float
    d2: float
    decided_recently_requested: bool


class FetchTwiceProbe:
    """Probe one object with two consecutive fetches (the paper's procedure)."""

    def __init__(self, topology: AttackTopology, gap_threshold: float) -> None:
        """``gap_threshold`` — decide "recently requested" iff d1 − d2 is
        below it; set to half the expected R↔P round trip (the delay a
        genuine miss adds on top of a hit)."""
        if gap_threshold <= 0:
            raise ValueError(f"gap_threshold must be > 0, got {gap_threshold}")
        self.topology = topology
        self.gap_threshold = gap_threshold
        self.verdicts: List[FetchTwiceVerdict] = []

    def probe(self, target: str, gap: float = 10.0):
        """Coroutine: fetch target twice, record the verdict."""
        first = yield from self.topology.adversary.fetch(target, timeout=10_000.0)
        if first is None:
            raise RuntimeError(f"first fetch of {target} failed")
        yield Timeout(gap)
        second = yield from self.topology.adversary.fetch(target, timeout=10_000.0)
        if second is None:
            raise RuntimeError(f"second fetch of {target} failed")
        verdict = FetchTwiceVerdict(
            target=target,
            d1=first.rtt,
            d2=second.rtt,
            decided_recently_requested=(first.rtt - second.rtt) < self.gap_threshold,
        )
        self.verdicts.append(verdict)
        return verdict
