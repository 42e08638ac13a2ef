"""The no-privacy baseline: vanilla NDN caching (Section VII, algorithm 1).

Every request matching cached content is served as an immediate cache hit —
the behavior the paper's attacks exploit, and the upper bound on utility in
Figure 5.
"""

from __future__ import annotations

from repro.core.schemes.base import (
    FAST_HIT,
    CacheScheme,
    Decision,
    SchemeKernel,
    _ConstantKernel,
)
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # avoid a runtime core->ndn import cycle
    from repro.ndn.cs import CacheEntry
    from repro.ndn.name import Name


class NoPrivacyScheme(CacheScheme):
    """Serve every cached object immediately, private or not."""

    name = "no-privacy"

    def on_request(self, entry: CacheEntry, private: bool, now: float) -> Decision:
        return Decision.hit()

    def decide_private(self, entry: CacheEntry, now: float) -> Decision:
        return Decision.hit()

    def make_kernel(self, names: Sequence[Name]) -> Optional[SchemeKernel]:
        return _ConstantKernel(FAST_HIT, len(names))
