"""Adversarial load generators: interest flooding and cache pollution.

Where :mod:`repro.faults.schedule` models *failures*, this module models
*attacks* on the forwarding plane's finite resources:

* :class:`InterestFloodWindow` — an attacker face emits interests for
  distinct, never-published names at a fixed cadence.  Each interest opens
  a PIT entry that nothing will ever satisfy, so an unbounded PIT grows to
  roughly ``lifetime / interval`` entries — the classic interest-flooding
  attack the bounded PIT and per-face rate limiting defend against.
* :class:`CachePollutionWindow` — an attacker requests a wide, unpopular
  catalog under a *real* (auto-generating) producer prefix, churning the
  Content Store and destroying the locality legitimate consumers rely on.
* :class:`AdaptivePollutionWindow` — the closed-loop adversary: a
  Bayesian (Thompson-sampling) attacker that *observes* whether its
  pollution fetches succeed and adapts its request cadence against a
  live defense, probing for the fastest rate the mitigation still
  admits.

Both are plain fault objects: frozen dataclasses exposing
``plan(network) -> [(time, action, label), ...]``, the extension protocol
:class:`~repro.faults.schedule.FaultSchedule` accepts.  They compose
freely with link outages, burst loss, and router crashes in a single
schedule.  Attack timing and name choice are derived from the window's
own ``seed`` (never from wall-clock or global state), so a schedule is
bit-reproducible and independent of everything else in the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from repro.faults.errors import FaultConfigError
from repro.faults.schedule import _check_window

if TYPE_CHECKING:  # typing only: faults must not import ndn at runtime
    from repro.ndn.network import Network


def _attacker_face(network: "Network", attacker: str, kind: str):
    """The attacking entity's network face, validated."""
    if attacker not in network:
        raise FaultConfigError(
            f"{kind} references unknown entity {attacker!r}"
        )
    entity = network[attacker]
    face = getattr(entity, "face", None)
    if face is None:
        raise FaultConfigError(
            f"{kind} attacker {attacker!r} has no attached face "
            "(use an end host, not a router)"
        )
    return face


def _check_start(kind: str, start: float, network: "Network") -> None:
    if start < network.engine.now:
        raise FaultConfigError(
            f"{kind} starts at t={start} in the past (now={network.engine.now})"
        )


@dataclass(frozen=True)
class InterestFloodWindow:
    """Flood distinct non-existent names from ``attacker`` during
    ``[start, end)``.

    Attributes:
        attacker: network entity name whose face emits the flood.
        prefix: name prefix for the flooded interests; use a prefix that
            is routable from the attacker but *unpublished* (or served by
            an ``auto_generate=False`` producer) so nothing answers and
            every interest dangles in the PIT until its lifetime expires.
        start/end: attack window in ms.
        interval: ms between consecutive flood interests.
        lifetime: interest lifetime in ms — with an unbounded PIT the
            flood sustains ~``lifetime / interval`` dangling entries.
        jitter: optional uniform per-interest send-time jitter in ms,
            drawn from ``seed`` (0 keeps the cadence exact).
        seed: derives name suffixes and jitter; same seed, same attack.
    """

    attacker: str
    prefix: str
    start: float
    end: float
    interval: float = 2.0
    lifetime: float = 2000.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_window("InterestFloodWindow", self.start, self.end)
        if self.interval <= 0:
            raise FaultConfigError(f"interval must be > 0, got {self.interval}")
        if self.lifetime <= 0:
            raise FaultConfigError(f"lifetime must be > 0, got {self.lifetime}")
        if self.jitter < 0:
            raise FaultConfigError(f"jitter must be >= 0, got {self.jitter}")

    @property
    def count(self) -> int:
        """Number of interests the window emits."""
        return int((self.end - self.start) / self.interval)

    def plan(self, network: "Network") -> List[Tuple[float, object, str]]:
        """Schedule one send event per flooded interest."""
        from repro.ndn.name import name_of
        from repro.ndn.packets import Interest

        _check_start("InterestFloodWindow", self.start, network)
        face = _attacker_face(network, self.attacker, "InterestFloodWindow")
        rng = np.random.default_rng(self.seed)
        label = f"attack:flood:{self.attacker}"
        plan: List[Tuple[float, object, str]] = []
        for i in range(self.count):
            at = self.start + i * self.interval
            if self.jitter > 0:
                at = min(self.end, at + rng.uniform(0.0, self.jitter))
            name = name_of(f"{self.prefix}/f{self.seed}-{i:06d}")
            interest = Interest(name=name, lifetime=self.lifetime)
            plan.append(
                (at, lambda f=face, p=interest: f.send_interest(p), label)
            )
        return plan


@dataclass(frozen=True)
class CachePollutionWindow:
    """Churn the Content Store with requests for a wide unpopular catalog.

    Each tick requests one name drawn uniformly (from ``seed``) out of
    ``catalog`` names under ``prefix``.  Point the prefix at a real
    producer with ``auto_generate=True`` so every request is *answered*
    and cached — the attack's damage is eviction of legitimately popular
    content (locality disruption), not dangling PIT state.

    Attributes:
        attacker: network entity name whose face emits the requests.
        prefix: routable, auto-generating producer prefix to pollute under.
        start/end: attack window in ms.
        interval: ms between consecutive pollution requests.
        catalog: number of distinct pollution names (make it a multiple
            of the victim CS capacity to guarantee churn).
        lifetime: interest lifetime in ms.
        seed: derives the request sequence; same seed, same attack.
    """

    attacker: str
    prefix: str
    start: float
    end: float
    interval: float = 5.0
    catalog: int = 1000
    lifetime: float = 4000.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_window("CachePollutionWindow", self.start, self.end)
        if self.interval <= 0:
            raise FaultConfigError(f"interval must be > 0, got {self.interval}")
        if self.catalog < 1:
            raise FaultConfigError(f"catalog must be >= 1, got {self.catalog}")
        if self.lifetime <= 0:
            raise FaultConfigError(f"lifetime must be > 0, got {self.lifetime}")

    @property
    def count(self) -> int:
        """Number of pollution requests the window emits."""
        return int((self.end - self.start) / self.interval)

    def plan(self, network: "Network") -> List[Tuple[float, object, str]]:
        """Schedule one send event per pollution request."""
        from repro.ndn.name import name_of
        from repro.ndn.packets import Interest

        _check_start("CachePollutionWindow", self.start, network)
        face = _attacker_face(network, self.attacker, "CachePollutionWindow")
        rng = np.random.default_rng(self.seed)
        label = f"attack:pollute:{self.attacker}"
        picks = rng.integers(0, self.catalog, size=self.count)
        plan: List[Tuple[float, object, str]] = []
        for i, pick in enumerate(picks):
            at = self.start + i * self.interval
            name = name_of(f"{self.prefix}/pollute-{int(pick):06d}")
            interest = Interest(name=name, lifetime=self.lifetime)
            plan.append(
                (at, lambda f=face, p=interest: f.send_interest(p), label)
            )
        return plan


@dataclass
class AdaptiveAttackLog:
    """Mutable telemetry the adaptive attacker writes as it runs.

    ``attempt_times`` records the simulated send time of every pollution
    fetch, so a scenario can count how many requests the attacker spent
    before the first alarm even though the cadence is not fixed.
    """

    attempts: int = 0
    delivered: int = 0
    #: Per-arm pull counts, parallel to the window's ``arms``.
    pulls: List[int] = field(default_factory=list)
    #: Per-arm success counts, parallel to ``pulls``.
    wins: List[int] = field(default_factory=list)
    attempt_times: List[float] = field(default_factory=list)

    @property
    def success_rate(self) -> float:
        """Delivered over attempted (the attacker's own utility)."""
        return self.delivered / self.attempts if self.attempts else 0.0

    def favored_arm(self) -> int:
        """Index of the most-pulled cadence arm (-1 before any pull)."""
        if not self.pulls:
            return -1
        return max(range(len(self.pulls)), key=lambda i: (self.pulls[i], -i))

    def requests_before(self, time: float) -> int:
        """Attempts issued strictly before ``time``."""
        return sum(1 for t in self.attempt_times if t < time)


@dataclass(frozen=True)
class AdaptivePollutionWindow:
    """A Thompson-sampling pollution attacker that reacts to the defense.

    Unlike :class:`CachePollutionWindow` (a fixed-cadence, fire-and-forget
    event plan), this window spawns a *process* on the attacker's consumer
    at ``start`` and closes the loop from the adversary's side: each
    round it samples a request cadence from ``arms`` via Thompson
    sampling — Beta(1+wins, 1+losses) posteriors per arm, arm chosen by
    the highest sampled *pollution rate* (success probability divided by
    the arm's interval) — fetches one uniformly drawn catalog name, and
    scores the arm by whether the fetch returned data.  A defense that
    throttles the attacker turns its fast arms into losers (Nacks and
    timeouts), so the posterior mass migrates to slower cadences: the
    attacker automatically backs off to the fastest rate the mitigation
    still admits, the strongest realistic adversary for the detection
    frontier.

    All randomness (arm sampling and catalog picks) comes from the
    window's own ``seed``; two runs with the same topology and seed are
    bit-identical.

    Attributes:
        attacker: consumer entity whose face drives the attack.
        prefix: routable, auto-generating producer prefix to pollute.
        start/end: attack window in ms (the process exits at ``end``).
        arms: candidate inter-request intervals (ms) the bandit explores.
        catalog: number of distinct pollution names.
        lifetime: interest lifetime in ms.
        timeout: per-fetch wait in ms before an attempt counts as a loss
            (kept short so the bandit stays responsive under throttling).
        seed: derives arm choices and name picks; same seed, same attack.
        log: mutable :class:`AdaptiveAttackLog` filled in during the run.
    """

    attacker: str
    prefix: str
    start: float
    end: float
    arms: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0)
    catalog: int = 1000
    lifetime: float = 4000.0
    timeout: float = 40.0
    seed: int = 0
    log: AdaptiveAttackLog = field(
        default_factory=AdaptiveAttackLog, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        _check_window("AdaptivePollutionWindow", self.start, self.end)
        if not self.arms or any(a <= 0 for a in self.arms):
            raise FaultConfigError(
                f"arms must be non-empty positive intervals, got {self.arms}"
            )
        if self.catalog < 1:
            raise FaultConfigError(f"catalog must be >= 1, got {self.catalog}")
        if self.lifetime <= 0:
            raise FaultConfigError(f"lifetime must be > 0, got {self.lifetime}")
        if self.timeout <= 0:
            raise FaultConfigError(f"timeout must be > 0, got {self.timeout}")

    def plan(self, network: "Network") -> List[Tuple[float, object, str]]:
        """One event: spawn the bandit process at the window start."""
        _check_start("AdaptivePollutionWindow", self.start, network)
        if self.attacker not in network:
            raise FaultConfigError(
                f"AdaptivePollutionWindow references unknown entity "
                f"{self.attacker!r}"
            )
        entity = network[self.attacker]
        if not callable(getattr(entity, "fetch", None)):
            raise FaultConfigError(
                f"AdaptivePollutionWindow attacker {self.attacker!r} must be "
                "a consumer (needs a fetch coroutine to observe outcomes)"
            )
        label = f"attack:adaptive-pollute:{self.attacker}"

        def _launch(net=network, window=self):
            net.engine.spawn(window._drive(net[window.attacker]), label=label)

        return [(self.start, _launch, label)]

    def _drive(self, consumer):
        """The attacker process: sample arm, fetch, update posterior."""
        from repro.sim.process import Timeout

        rng = np.random.default_rng(self.seed)
        n = len(self.arms)
        wins = [1.0] * n  # Beta posterior: alpha = 1 + wins
        losses = [1.0] * n  # Beta posterior: beta = 1 + losses
        self.log.pulls.extend(0 for _ in range(n))
        self.log.wins.extend(0 for _ in range(n))
        engine = consumer.engine
        while engine.now < self.end:
            samples = [float(rng.beta(wins[i], losses[i])) for i in range(n)]
            # Thompson sampling over *pollution rate*: expected successes
            # per ms, not bare success probability — otherwise the bandit
            # would trivially settle on the slowest (least-throttled) arm.
            arm = max(range(n), key=lambda i: samples[i] / self.arms[i])
            pick = int(rng.integers(0, self.catalog))
            self.log.attempts += 1
            self.log.pulls[arm] += 1
            self.log.attempt_times.append(engine.now)
            result = yield from consumer.fetch(
                f"{self.prefix}/pollute-{pick:06d}",
                lifetime=self.lifetime,
                timeout=self.timeout,
            )
            if result is not None:
                wins[arm] += 1.0
                self.log.delivered += 1
                self.log.wins[arm] += 1
            else:
                losses[arm] += 1.0
            yield Timeout(self.arms[arm])

