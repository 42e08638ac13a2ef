"""Always-delay-private-content (Sections V-B and VII, algorithm 2).

Every request for *cached private* content is disguised as a cache miss by
delaying the response per the configured delay policy (content-specific
γ_C by default, the paper's safe choice).  Because a cache hit is never
observable for private content, the scheme is perfectly private in the
sense of Definition IV.2 — at the cost of forfeiting all latency benefit
of caching for private traffic (the Figure 5 lower bound).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.schemes.base import (
    FAST_DELAYED,
    CacheScheme,
    Decision,
    SchemeKernel,
    _ConstantKernel,
)
from repro.core.schemes.delay_policies import ContentSpecificDelay, DelayPolicy

if TYPE_CHECKING:  # avoid a runtime core->ndn import cycle
    from repro.ndn.cs import CacheEntry
    from repro.ndn.name import Name


class AlwaysDelayScheme(CacheScheme):
    """Disguise every private cache hit as a miss via artificial delay."""

    name = "always-delay"

    def __init__(self, delay_policy: Optional[DelayPolicy] = None) -> None:
        self.delay_policy = (
            delay_policy if delay_policy is not None else ContentSpecificDelay()
        )

    def decide_private(self, entry: CacheEntry, now: float) -> Decision:
        return Decision.delayed(self.delay_policy.delay_for(entry, now))

    def make_kernel(self, names: Sequence[Name]) -> Optional[SchemeKernel]:
        # Replay accounting depends only on the decision *kind*; the
        # artificial delay amount is charged by the replay loop itself.
        return _ConstantKernel(FAST_DELAYED, len(names))
