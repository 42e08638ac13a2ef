"""Synthetic IRCache/NLANR-style HTTP proxy trace (Section VII substrate).

The paper replays a 24-hour IRCache Web-proxy trace (Research Triangle
Park, 2007-09-01): 185 users, ≈3.2 M requests.  That trace is no longer
distributed, so this module synthesizes a trace with the statistical
properties the cache-hit-rate results actually depend on:

* Zipf-like object popularity (exponent ≈ 0.6–0.9, per classic Web-cache
  measurement literature),
* heavy-tailed user activity (a few heavy browsers, many light ones),
* objects clustered into sites (so namespace grouping is meaningful),
* a diurnal request-rate profile over 24 hours,
* optional browsing-session temporal locality.

Generation is **streaming-first**: the canonical algorithm emits the
trace in fixed-size sampling blocks (:data:`SAMPLING_BLOCK` requests per
RNG batch), so a million-user / multi-million-request workload never has
to exist in RAM.  :meth:`IrcacheGenerator.stream` returns a re-iterable
:class:`~repro.workload.streaming.Workload`; :meth:`IrcacheGenerator.generate`
is a thin materialization of the same stream, so ``generate()`` and
``stream()`` describe the *same* realization request for request.  The
RNG draw schedule is a function of the config alone — never of the
consumer's chunk size — which is what makes the stream seed-reproducible
independent of chunking.

Scale is configurable; defaults are a 1/16 scale-down (200 k requests)
that replays in seconds while preserving the popularity skew.  A real
trace in the TSV format of :mod:`repro.workload.trace` can be substituted
wherever a synthetic one is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.workload.streaming import RequestBlock, iter_requests, materialize, rechunk
from repro.workload.trace import Request, Trace
from repro.workload.zipf import ZipfSampler

#: Hourly request-rate weights (fraction of traffic per hour, 24 entries):
#: a typical office-hours proxy profile — quiet overnight, peaks at
#: mid-morning and mid-afternoon.
DIURNAL_PROFILE = (
    0.010, 0.008, 0.006, 0.005, 0.005, 0.008,
    0.015, 0.030, 0.055, 0.075, 0.080, 0.075,
    0.065, 0.070, 0.078, 0.074, 0.066, 0.055,
    0.045, 0.040, 0.038, 0.037, 0.032, 0.028,
)

MS_PER_HOUR = 3_600_000.0

#: Internal sampling-block size: requests per RNG draw batch.  This is a
#: constant of the generation *algorithm*, not a tuning knob — changing
#: it changes which trace a seed denotes, so it participates in the
#: trace-cache fingerprint via :data:`IRCACHE_ALGORITHM_VERSION`.
SAMPLING_BLOCK = 65_536

#: Bumped whenever the canonical generation algorithm changes (draw
#: order, block structure, locality model).  Trace caches key on it so a
#: stale materialization can never be confused with the current one.
IRCACHE_ALGORITHM_VERSION = 2


@dataclass
class IrcacheConfig:
    """Parameters of the synthetic proxy trace."""

    requests: int = 200_000
    users: int = 185
    objects: int = 300_000
    sites: int = 4_000
    #: Zipf exponent of object popularity.
    popularity_exponent: float = 0.7
    #: Zipf exponent of site sizes (objects per site).
    site_exponent: float = 1.0
    #: Zipf exponent of user activity.
    user_exponent: float = 0.6
    #: Probability that a user's next request stays on their current site
    #: (browsing-session temporal locality).  0 = i.i.d. popularity draws.
    session_locality: float = 0.0
    duration_hours: float = 24.0
    diurnal: tuple = DIURNAL_PROFILE
    seed: int = 0

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if self.users < 1:
            raise ValueError(f"users must be >= 1, got {self.users}")
        if self.objects < 1:
            raise ValueError(f"objects must be >= 1, got {self.objects}")
        if self.sites < 1:
            raise ValueError(f"sites must be >= 1, got {self.sites}")
        if self.duration_hours <= 0:
            raise ValueError(
                f"duration_hours must be > 0, got {self.duration_hours}"
            )
        if len(self.diurnal) == 0 or any(w < 0 for w in self.diurnal):
            raise ValueError("diurnal profile must be non-empty and non-negative")
        if not 0.0 <= self.session_locality < 1.0:
            raise ValueError(
                f"session_locality must be in [0, 1), got {self.session_locality}"
            )


class _SessionState:
    """Cross-block browsing-session state (vectorized locality model).

    Each user has a *current site*; with probability ``session_locality``
    a request stays on it (uniform member of that site), otherwise the
    fresh Zipf draw is used and re-establishes the site.  A user's first
    request always establishes.  Within one sampling block the state
    chain is resolved with a segmented forward-fill instead of a Python
    loop, and the per-user carry survives across blocks — so the model is
    identical no matter how the stream is chunked downstream.
    """

    __slots__ = (
        "p", "object_site", "site_order", "site_counts", "site_offsets",
        "current_site",
    )

    def __init__(self, config: IrcacheConfig, object_site: np.ndarray) -> None:
        self.p = config.session_locality
        self.object_site = object_site
        # CSR view of site membership: objects of site s are
        # site_order[site_offsets[s] : site_offsets[s] + site_counts[s]],
        # in ascending object order.
        order = np.argsort(object_site, kind="stable")
        counts = np.bincount(object_site, minlength=config.sites)
        offsets = np.zeros(config.sites + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        self.site_order = order
        self.site_counts = counts.astype(np.int64)
        self.site_offsets = offsets[:-1]
        self.current_site = np.full(config.users, -1, dtype=np.int64)

    def apply(
        self,
        ranks: np.ndarray,
        users: np.ndarray,
        stay_u: np.ndarray,
        member_u: np.ndarray,
    ) -> np.ndarray:
        n = ranks.shape[0]
        if n == 0:
            return ranks
        stay = stay_u < self.p
        order = np.argsort(users, kind="stable")
        u_s = users[order]
        run_begin = np.empty(n, dtype=bool)
        run_begin[0] = True
        np.not_equal(u_s[1:], u_s[:-1], out=run_begin[1:])
        run_id = (np.cumsum(run_begin) - 1).astype(np.int64)
        carry = self.current_site[u_s]
        stay_s = stay[order]
        ranks_s = ranks[order]
        fresh_site_s = self.object_site[ranks_s]
        # Establishing positions: fresh draws, plus the first request of a
        # user who has no site yet (their stay flag has nothing to stay on).
        establish = ~stay_s
        establish |= run_begin & (carry < 0)
        # Segmented forward-fill of "1-based index of the last establishing
        # position": encode (run_id, idx) so one cummax respects segments.
        base = np.int64(n + 2)
        val = np.where(establish, np.arange(1, n + 1, dtype=np.int64), 0)
        key = run_id * base + val
        np.maximum.accumulate(key, out=key)
        val_inc = key - run_id * base
        # Exclusive variant = the state *before* each position.
        val_exc = np.empty(n, dtype=np.int64)
        val_exc[0] = 0
        val_exc[1:] = val_inc[:-1]
        val_exc[run_begin] = 0
        before_site = np.where(val_exc > 0, fresh_site_s[val_exc - 1], carry)
        use_stay = stay_s & ~establish
        # Uniform member of the pre-request site (only read where use_stay;
        # clip so void positions index safely and are then discarded).
        site_idx = np.maximum(before_site, 0)
        counts = self.site_counts[site_idx]
        pick = (member_u[order] * counts).astype(np.int64)
        np.minimum(pick, counts - 1, out=pick)
        member = self.site_order[self.site_offsets[site_idx] + pick]
        new_ranks_s = np.where(use_stay, member, ranks_s)
        # Persist each user's end-of-block site for the next block.
        run_end = np.empty(n, dtype=bool)
        run_end[:-1] = run_begin[1:]
        run_end[-1] = True
        final_site = np.where(val_inc > 0, fresh_site_s[val_inc - 1], carry)
        self.current_site[u_s[run_end]] = final_site[run_end]
        out = np.empty_like(ranks)
        out[order] = new_ranks_s
        return out


class IrcacheGenerator:
    """Generates IRCache-style workloads per an :class:`IrcacheConfig`."""

    def __init__(self, config: Optional[IrcacheConfig] = None) -> None:
        self.config = config if config is not None else IrcacheConfig()

    def expected_unlimited_hit_rate(self) -> float:
        """Analytic hit rate of an unlimited cache on this configuration.

        1 − E[unique objects] / requests — the Inf point of Figure 5
        before any privacy scheme is applied.
        """
        cfg = self.config
        sampler = ZipfSampler(cfg.objects, cfg.popularity_exponent)
        return 1.0 - sampler.expected_unique(cfg.requests) / cfg.requests

    # ------------------------------------------------------------------
    # Canonical streaming algorithm
    # ------------------------------------------------------------------
    def object_sites(self) -> np.ndarray:
        """Static object → site assignment (first RNG draw of the seed)."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        return ZipfSampler(cfg.sites, cfg.site_exponent).sample(cfg.objects, rng)

    def stream_blocks(self) -> Iterator[RequestBlock]:
        """Yield the trace as internal sampling blocks (time-ordered).

        The block structure is fixed by the config: request counts come
        from a diurnal-slot multinomial, each slot is split into
        equal-width sub-bins of ≈ :data:`SAMPLING_BLOCK` expected
        requests, and every RNG draw is batched per sub-bin — so the
        realization is independent of how a consumer re-chunks the
        stream.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        object_sampler = ZipfSampler(cfg.objects, cfg.popularity_exponent)
        site_sampler = ZipfSampler(cfg.sites, cfg.site_exponent)
        user_sampler = ZipfSampler(cfg.users, cfg.user_exponent)

        # Static assignment: each object lives on one site, heavy-tailed.
        object_site = site_sampler.sample(cfg.objects, rng)

        weights = np.asarray(cfg.diurnal, dtype=float)
        weights = weights / weights.sum()
        slots = len(weights)
        slot_duration = cfg.duration_hours * MS_PER_HOUR / slots
        slot_counts = rng.multinomial(cfg.requests, weights)

        state = (
            _SessionState(cfg, object_site)
            if cfg.session_locality > 0.0
            else None
        )

        for slot in range(slots):
            count = int(slot_counts[slot])
            if count == 0:
                continue
            bins = -(-count // SAMPLING_BLOCK)
            if bins > 1:
                bin_counts = rng.multinomial(count, np.full(bins, 1.0 / bins))
            else:
                bin_counts = (count,)
            bin_width = slot_duration / bins
            for b in range(bins):
                c = int(bin_counts[b])
                if c == 0:
                    continue
                start = slot * slot_duration + b * bin_width
                times = np.sort(rng.random(c)) * bin_width + start
                users = user_sampler.sample(c, rng)
                ranks = object_sampler.sample(c, rng)
                if state is not None:
                    stay_u = rng.random(c)
                    member_u = rng.random(c)
                    ranks = state.apply(ranks, users, stay_u, member_u)
                yield RequestBlock(times=times, users=users, keys=ranks)

    def stream(self) -> "IrcacheStream":
        """The trace as a re-iterable streaming :class:`Workload`."""
        return IrcacheStream(self)

    def generate(self) -> Trace:
        """Materialize the full trace in RAM (sorted by construction).

        Request-for-request identical to consuming :meth:`stream` — the
        streaming path is the canonical algorithm, this collects it into
        the :class:`Trace` the reference ``replay()`` needs.
        """
        return materialize(self.stream())


class IrcacheStream:
    """Streaming :class:`~repro.workload.streaming.Workload` view of one
    :class:`IrcacheConfig` realization.

    Re-iterable: every pass replays the same seed-determined request
    sequence.  Content keys are global object ranks (``key_space`` is the
    catalog size); memory per pass is O(catalog + sampling block),
    independent of the request count.
    """

    def __init__(self, generator: IrcacheGenerator) -> None:
        self.generator = generator
        self.config = generator.config
        self._object_site: Optional[np.ndarray] = None
        self._expected_names: Optional[int] = None

    @property
    def n_requests(self) -> int:
        return self.config.requests

    @property
    def n_names(self) -> int:
        """Estimated distinct names (expected unique Zipf draws)."""
        if self._expected_names is None:
            cfg = self.config
            sampler = ZipfSampler(cfg.objects, cfg.popularity_exponent)
            expected = sampler.expected_unique(cfg.requests)
            self._expected_names = max(1, min(cfg.objects, ceil(expected)))
        return self._expected_names

    @property
    def key_space(self) -> Optional[int]:
        return self.config.objects

    def _sites(self) -> np.ndarray:
        if self._object_site is None:
            self._object_site = self.generator.object_sites()
        return self._object_site

    def uri_of(self, key: int) -> str:
        return f"/s{int(self._sites()[key])}/o{int(key)}"

    def components_of(self, key: int) -> Tuple[str, ...]:
        return (f"s{int(self._sites()[key])}", f"o{int(key)}")

    def iter_blocks(
        self, chunk_size: Optional[int] = None
    ) -> Iterator[RequestBlock]:
        return rechunk(self.generator.stream_blocks(), chunk_size)

    def __iter__(self) -> Iterator[Request]:
        return iter_requests(self)


def small_test_trace(requests: int = 5000, seed: int = 0) -> Trace:
    """A quickly-generated trace for unit tests and examples."""
    config = IrcacheConfig(
        requests=requests,
        users=25,
        objects=max(200, requests // 2),
        sites=50,
        seed=seed,
    )
    return IrcacheGenerator(config).generate()
