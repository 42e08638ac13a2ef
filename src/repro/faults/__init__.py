"""Attack windows and failure recovery for the NDN substrate.

The paper evaluates on a healthy network; beyond its cache-timing probe
this package supplies the two forwarding-plane attacks the repo models,
interest flooding and cache pollution (:mod:`repro.faults.adversarial`),
bound to a network by a :class:`FaultSchedule`, and the consumer-side
recovery machinery (:class:`RetryPolicy`) that keeps experiments
producing answers instead of hanging.

Everything is deterministic from the root seed: schedules turn into
ordinary engine events, and each attack window draws from its own seed.
"""

from repro.faults.adversarial import (
    AdaptiveAttackLog,
    AdaptivePollutionWindow,
    CachePollutionWindow,
    InterestFloodWindow,
)
from repro.faults.errors import FaultConfigError, FaultError
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import FaultSchedule

__all__ = [
    "AdaptiveAttackLog",
    "AdaptivePollutionWindow",
    "CachePollutionWindow",
    "InterestFloodWindow",
    "FaultConfigError",
    "FaultError",
    "FaultSchedule",
    "RetryPolicy",
]
