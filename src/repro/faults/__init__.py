"""Fault injection and failure recovery for the NDN substrate.

The paper evaluates on an ideal network; this package supplies the
degraded one: burst loss (:class:`GilbertElliottLoss`), link outages and
delay spikes (:class:`FaultSchedule` windows), router crash/restart with
cold or warm Content Stores (:class:`RouterCrash`), and the consumer-side
recovery machinery (:class:`RetryPolicy`) that keeps experiments
producing answers instead of hanging.

Everything is deterministic from the root seed: loss models draw from the
link's named RNG stream, schedules turn into ordinary engine events, and
randomized schedules are generated from an explicit RNG
(:func:`random_link_flaps`).
"""

from repro.faults.adversarial import (
    AdaptiveAttackLog,
    AdaptivePollutionWindow,
    CachePollutionWindow,
    InterestFloodWindow,
)
from repro.faults.errors import FaultConfigError, FaultError
from repro.faults.loss import GilbertElliottLoss, IidLoss, LossModel
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import (
    BurstLossWindow,
    DelaySpikeWindow,
    Fault,
    FaultSchedule,
    LinkDownWindow,
    RouterCrash,
    random_link_flaps,
)

__all__ = [
    "AdaptiveAttackLog",
    "AdaptivePollutionWindow",
    "BurstLossWindow",
    "CachePollutionWindow",
    "InterestFloodWindow",
    "DelaySpikeWindow",
    "Fault",
    "FaultConfigError",
    "FaultError",
    "FaultSchedule",
    "GilbertElliottLoss",
    "IidLoss",
    "LinkDownWindow",
    "LossModel",
    "RetryPolicy",
    "RouterCrash",
    "random_link_flaps",
]
