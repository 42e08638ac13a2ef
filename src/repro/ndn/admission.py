"""Admission control for the interest plane: per-face token buckets.

Interest-flooding defenses start at the ingress: each arrival face gets a
token bucket refilled continuously in simulated time, and an interest is
admitted only if a token is available.  A flooding face exhausts its own
bucket while well-behaved faces are untouched — per-face isolation is the
property the bounded-forwarder overload tests assert.

Rates are expressed in interests per *second* (the human-facing unit) and
converted internally to the simulator's millisecond clock.  Buckets are
purely deterministic — refill depends only on elapsed simulated time — so
rate-limited runs stay bit-reproducible from the root seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.ndn.errors import NdnError


class AdmissionError(NdnError):
    """Invalid admission-control configuration."""


@dataclass(frozen=True)
class InterestRateLimit:
    """Per-face interest admission policy.

    Attributes:
        rate: sustained interests per second each face may inject.
        burst: bucket depth — interests a face may send back-to-back
            after an idle period (defaults to ``rate`` over one second).
    """

    rate: float
    burst: float = 0.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise AdmissionError(f"rate must be > 0 interests/s, got {self.rate}")
        if self.burst < 0:
            raise AdmissionError(f"burst must be >= 0, got {self.burst}")

    @property
    def bucket_depth(self) -> float:
        """Token capacity: ``burst`` if given, else one second of rate."""
        return self.burst if self.burst > 0 else self.rate

    def make_bucket(self, now: float) -> "TokenBucket":
        """A fresh (full) bucket for one face, anchored at ``now``."""
        return TokenBucket(
            rate_per_ms=self.rate / 1000.0, depth=self.bucket_depth, now=now
        )


class TokenBucket:
    """A continuous-refill token bucket on the simulated clock."""

    __slots__ = ("rate_per_ms", "depth", "tokens", "last_refill", "admitted", "rejected")

    def __init__(self, rate_per_ms: float, depth: float, now: float = 0.0) -> None:
        if rate_per_ms <= 0 or depth <= 0:
            raise AdmissionError(
                f"rate_per_ms and depth must be > 0, got {rate_per_ms}, {depth}"
            )
        self.rate_per_ms = rate_per_ms
        self.depth = depth
        self.tokens = depth
        self.last_refill = now
        self.admitted = 0
        self.rejected = 0

    def _refill(self, now: float) -> None:
        elapsed = now - self.last_refill
        if elapsed > 0:
            self.tokens = min(self.depth, self.tokens + elapsed * self.rate_per_ms)
            self.last_refill = now

    def allow(self, now: float) -> bool:
        """Consume one token if available; False means reject."""
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.admitted += 1
            return True
        self.rejected += 1
        return False

    def peek(self, now: float) -> float:
        """Current token count (after refill), without consuming."""
        self._refill(now)
        return self.tokens


class FaceRateLimiter:
    """Lazily creates one :class:`TokenBucket` per face."""

    def __init__(self, limit: InterestRateLimit) -> None:
        self.limit = limit
        self._buckets: Dict[int, TokenBucket] = {}

    def allow(self, face, now: float) -> bool:
        """Admit one interest from ``face`` at simulated time ``now``."""
        bucket = self._buckets.get(face.face_id)
        if bucket is None:
            bucket = self.limit.make_bucket(now)
            self._buckets[face.face_id] = bucket
        return bucket.allow(now)

    def bucket_for(self, face) -> TokenBucket:
        """The face's bucket (created full if the face never sent)."""
        bucket = self._buckets.get(face.face_id)
        if bucket is None:
            bucket = self.limit.make_bucket(0.0)
            self._buckets[face.face_id] = bucket
        return bucket

    @property
    def rejected(self) -> int:
        """Total interests rejected across all faces."""
        return sum(b.rejected for b in self._buckets.values())
