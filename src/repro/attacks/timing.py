"""The consumer-privacy cache timing attack (Section III, experiments 1–2).

The adversary shares first-hop router R with victim U.  To learn whether U
recently requested content C:

1. measure d1 — the delay of fetching C,
2. fetch an unrelated existing content C' twice; the second fetch is
   certainly served from R's cache, giving the reference delay d2,
3. decide "U requested C" iff d1 ≈ d2 (cache hit at R).

Two layers are provided.  :class:`CacheProbeAttack` runs the adversary
procedure *inside* a simulation, as a process (the README example, and
the oracle the scripted verdicts are tested against).  The measurement
campaigns — :func:`collect_rtt_distributions` (the prefetch-and-probe
protocol behind the Figure-3 PDFs) and :func:`run_probe_attack` (the
same d1-vs-d2 procedure with ground truth) — are *non-adaptive*: what U
prefetches and what Adv probes is fixed up front and every verdict is a
function of the recorded RTTs.  They are therefore emitted as two
:class:`~repro.sim.batch.script.ConsumerScript` s by the one campaign
builder, :func:`probe_campaign`, run by :func:`run_campaign` through
:func:`repro.sim.batch.run_scripts` — on the batch kernel whenever the
topology lowers, bit-identically on the reference engine otherwise —
and the adversary's RTT list is labelled by position afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.attacks.classifier import ThresholdClassifier, bayes_success
from repro.ndn.name import Name, name_of
from repro.ndn.topology import AttackTopology
from repro.sim.batch import run_scripts
from repro.sim.batch.script import (
    ConsumerScript,
    FetchStep,
    SleepStep,
    TopologyObservables,
)
from repro.sim.process import Timeout


class CampaignError(RuntimeError):
    """A scripted campaign fetch was not delivered.

    Campaign RTTs are labelled by their position in the script, so one
    missing sample would silently shift every later label.
    """


@dataclass(frozen=True)
class ProbeVerdict:
    """Outcome of one adversary probe against one target name."""

    target: Name
    rtt: float
    decided_hit: bool
    threshold: float


@dataclass
class RttDistributions:
    """Labeled RTT samples from one measurement campaign."""

    hit_rtts: List[float] = field(default_factory=list)
    miss_rtts: List[float] = field(default_factory=list)
    #: :attr:`TopologyObservables.engine` behind the samples: ``"batch"``,
    #: or the first pooled fallback's ``"reference: <reason>"``.
    engine: str = "batch"

    @property
    def bayes_success_probability(self) -> float:
        """Equal-prior Bayes success of distinguishing hit from miss."""
        return bayes_success(self.hit_rtts, self.miss_rtts)

    def extend(self, other: "RttDistributions") -> None:
        """Merge another campaign's samples."""
        self.hit_rtts.extend(other.hit_rtts)
        self.miss_rtts.extend(other.miss_rtts)
        if self.engine == "batch":
            self.engine = other.engine


class CacheProbeAttack:
    """The adversary's probe procedure, run as a simulation process."""

    #: Priming fetch excluded, how often the reference is re-fetched.
    REFERENCE_PROBES = 5
    #: Think time between the adversary's fetches (ms).
    GAP = 5.0
    #: Hit threshold: this many standard deviations above the mean d2.
    MARGIN_SIGMAS = 4.0

    def __init__(
        self, topology: AttackTopology, margin_sigmas: float = MARGIN_SIGMAS
    ) -> None:
        self.topology = topology
        self.adversary = topology.adversary
        self.margin_sigmas = margin_sigmas
        self.verdicts: List[ProbeVerdict] = []

    def run(
        self,
        targets: Sequence[Union[str, Name]],
        reference: Union[str, Name],
        reference_probes: int = REFERENCE_PROBES,
        gap: float = GAP,
    ):
        """Coroutine: probe each target, deciding hit/miss via the d2 reference.

        ``reference`` is any *existing* content name; it is fetched once to
        force it into R's cache and then ``reference_probes`` more times to
        estimate the hit-delay distribution d2.  Each target is then probed
        once and judged against the reference threshold.
        """
        ref_name = name_of(reference)
        first = yield from self.adversary.fetch(ref_name)
        if first is None:
            raise RuntimeError(f"reference content {ref_name} unreachable")
        yield Timeout(gap)
        ref_rtts = []
        for _ in range(reference_probes):
            result = yield from self.adversary.fetch(ref_name)
            if result is None:
                raise RuntimeError(f"reference re-fetch of {ref_name} failed")
            ref_rtts.append(result.rtt)
            yield Timeout(gap)
        classifier = ThresholdClassifier.from_reference(
            ref_rtts, margin_sigmas=self.margin_sigmas
        )
        for target in targets:
            target_name = name_of(target)
            result = yield from self.adversary.fetch(target_name)
            if result is None:
                continue
            self.verdicts.append(
                ProbeVerdict(
                    target=target_name,
                    rtt=result.rtt,
                    decided_hit=classifier.is_hit(result.rtt),
                    threshold=classifier.threshold,
                )
            )
            yield Timeout(gap)
        return self.verdicts


def probe_campaign(
    topo: AttackTopology,
    prefetch: Sequence[str],
    probes: Sequence[str],
    warmup: float,
    user_gap: float,
    probe_gap: float,
    timeout: float = 4000.0,
    private: bool = False,
) -> List[ConsumerScript]:
    """One prefetch-and-probe trial as two consumer scripts.

    U fetches ``prefetch`` in order (marked ``private`` if asked),
    thinking ``user_gap`` ms after each; Adv sleeps ``warmup`` ms, then
    fetches ``probes`` the same way — so after :func:`run_campaign`,
    ``rtts[topo.adversary.name][i]`` is the RTT of ``probes[i]``.  One
    :class:`SleepStep` serves every pause of one gap value.
    """
    pause = {gap: SleepStep(gap) for gap in (warmup, user_gap, probe_gap)}
    user: list = []
    for name in prefetch:
        user += FetchStep(name, timeout=timeout, private=private), pause[user_gap]
    adversary: list = [pause[warmup]]
    for name in probes:
        adversary += FetchStep(name, timeout=timeout), pause[probe_gap]
    return [
        ConsumerScript(topo.user.name, user),
        ConsumerScript(topo.adversary.name, adversary),
    ]


def run_campaign(
    topo: AttackTopology, scripts: Sequence[ConsumerScript]
) -> TopologyObservables:
    """Run a campaign on ``topo`` (fresh: empty caches, engine at 0).

    Batch kernel when the topology lowers, reference engine otherwise;
    raises :class:`CampaignError` if any scripted fetch went undelivered.
    """
    observed = run_scripts(topo.network, list(scripts))
    check_delivered(scripts, observed)
    return observed


def check_delivered(
    scripts: Sequence[ConsumerScript], observed: TopologyObservables
) -> None:
    """Raise :class:`CampaignError` unless every scripted fetch of a
    finished campaign was delivered."""
    for script in scripts:
        wanted = sum(isinstance(step, FetchStep) for step in script.steps)
        got = observed.delivered[script.consumer]
        if got != wanted:
            raise CampaignError(
                f"{script.consumer}: {wanted - got} of {wanted} scripted "
                f"fetches were not delivered"
            )


def pooled_campaigns(
    topology_builder: Callable[..., AttackTopology],
    trials: int,
    base_seed: int,
    builder_kwargs: Optional[dict],
    stem: str,
    count: int,
    warmup: float,
    gap: float,
    timeout: float = 4000.0,
) -> RttDistributions:
    """``trials`` labelled prefetch-and-probe campaigns, pooled.

    Per trial (fresh topology ⇒ empty caches, new RNG streams) U
    prefetches ``count`` objects; Adv waits ``warmup`` ms, then probes
    those — **hit** samples — and as many never-requested ones —
    **miss** samples; both think ``gap`` ms between fetches.  ``stem``
    names the objects (``{prefix}/{stem}{trial}-hot-{i}`` / ``-cold-``).
    """
    pooled = RttDistributions()
    for trial in range(trials):
        topo = topology_builder(seed=base_seed + trial, **(builder_kwargs or {}))
        base = f"{topo.content_prefix}/{stem}{trial}"
        hot = [f"{base}-hot-{i}" for i in range(count)]
        cold = [f"{base}-cold-{i}" for i in range(count)]
        observed = run_campaign(
            topo, probe_campaign(topo, hot, hot + cold, warmup, gap, gap, timeout)
        )
        rtts = observed.rtts[topo.adversary.name]
        pooled.extend(RttDistributions(rtts[:count], rtts[count:], observed.engine))
    return pooled


def collect_rtt_distributions(
    topology_builder: Callable[..., AttackTopology],
    objects_per_trial: int = 100,
    trials: int = 10,
    base_seed: int = 0,
    warmup_gap: float = 50.0,
    probe_gap: float = 2.0,
    builder_kwargs: Optional[dict] = None,
) -> RttDistributions:
    """The paper's measurement protocol, generalized over topologies.

    Per trial (fresh topology ⇒ empty caches, new RNG streams):

    1. U requests ``objects_per_trial`` distinct objects, caching them at R,
    2. Adv fetches the same objects — labeled **hit** samples,
    3. Adv fetches as many *never-requested* objects — labeled **miss**.

    Returns the pooled labeled samples; feed them to
    :func:`repro.attacks.classifier.bayes_success` (or read
    ``.bayes_success_probability``) for the paper's headline numbers.
    """
    if objects_per_trial < 1:
        raise ValueError(f"objects_per_trial must be >= 1, got {objects_per_trial}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    return pooled_campaigns(
        topology_builder,
        trials,
        base_seed,
        builder_kwargs,
        stem="t",
        count=objects_per_trial,
        warmup=warmup_gap + objects_per_trial * probe_gap * 4,
        gap=probe_gap,
    )


def probe_attack_campaign(
    topo: AttackTopology,
    hot: Sequence[str],
    cold: Sequence[str],
    reference: str,
    warmup: float,
    private: bool = False,
) -> Tuple[List[str], List[ConsumerScript]]:
    """:func:`run_probe_attack`'s campaign: the adversary's fetch order
    (the priming fetch and the reference samples, then ``hot + cold``)
    and the two scripts."""
    sampled = 1 + CacheProbeAttack.REFERENCE_PROBES  # priming fetch: no sample
    probes = [reference] * sampled + [*hot, *cold]
    gap = CacheProbeAttack.GAP
    return probes, probe_campaign(
        topo, hot, probes, warmup, 2.0, gap, private=private
    )


def judge_probe_attack(
    rtts: Sequence[float], probes: Sequence[str], hot: int
) -> Tuple[List[ProbeVerdict], int]:
    """The adversary's verdicts on the RTTs of its ``probes`` (as
    :func:`probe_attack_campaign` orders them) and how many are right —
    the first ``hot`` targets were prefetched, the rest were not."""
    sampled = 1 + CacheProbeAttack.REFERENCE_PROBES
    classifier = ThresholdClassifier.from_reference(
        rtts[1:sampled], margin_sigmas=CacheProbeAttack.MARGIN_SIGMAS
    )
    verdicts = [
        ProbeVerdict(name_of(t), rtt, classifier.is_hit(rtt), classifier.threshold)
        for t, rtt in zip(probes[sampled:], rtts[sampled:])
    ]
    correct = sum(v.decided_hit == (i < hot) for i, v in enumerate(verdicts))
    return verdicts, correct


def run_probe_attack(
    topo: AttackTopology,
    hot: Sequence[str],
    cold: Sequence[str],
    reference: str,
    warmup: float,
    private: bool = False,
) -> Tuple[List[ProbeVerdict], int, TopologyObservables]:
    """:meth:`CacheProbeAttack.run` against a half-prefetched target set,
    scripted, then judged and scored afterwards.

    U prefetches ``hot``; Adv primes ``reference``, samples it
    :attr:`~CacheProbeAttack.REFERENCE_PROBES` times, then probes
    ``hot + cold`` once each.  The adversary's classifier is a function
    of the reference RTTs alone, so judging the recorded RTTs post hoc
    yields exactly the verdicts the in-simulation adversary reaches.
    Returns them, how many match ground truth (``hot`` was prefetched,
    ``cold`` was not), and the run's observables.
    """
    probes, scripts = probe_attack_campaign(
        topo, hot, cold, reference, warmup, private=private
    )
    observed = run_campaign(topo, scripts)
    verdicts, correct = judge_probe_attack(
        observed.rtts[topo.adversary.name], probes, len(hot)
    )
    return verdicts, correct, observed


def attack_accuracy(
    topology_builder: Callable[..., AttackTopology],
    targets_per_trial: int = 40,
    trials: int = 5,
    base_seed: int = 1000,
    builder_kwargs: Optional[dict] = None,
) -> float:
    """End-to-end adversary accuracy with ground truth.

    Runs the :class:`CacheProbeAttack` procedure (:func:`run_probe_attack`)
    against a half-prefetched target set and scores its verdicts; unlike
    :func:`collect_rtt_distributions` this exercises the *actual decision
    procedure* (reference probing included), not just the distribution gap.
    """
    if targets_per_trial < 2:
        raise ValueError(f"targets_per_trial must be >= 2, got {targets_per_trial}")
    correct = total = 0
    for trial in range(trials):
        topo = topology_builder(seed=base_seed + trial, **(builder_kwargs or {}))
        base = f"{topo.content_prefix}/acc{trial}"
        half = range(targets_per_trial // 2)
        verdicts, right, _ = run_probe_attack(
            topo,
            hot=[f"{base}-hot-{i}" for i in half],
            cold=[f"{base}-cold-{i}" for i in half],
            reference=f"{base}-ref",
            warmup=1000.0 + targets_per_trial * 10.0,
        )
        correct += right
        total += len(verdicts)
    if total == 0:
        raise RuntimeError("attack produced no verdicts")
    return correct / total
