"""Workloads: synthetic IRCache-style traces and the replay harness."""

from repro.workload.fitting import TraceFit, fit_trace, fit_zipf_exponent
from repro.workload.hierarchy import (
    CacheHierarchy,
    HierarchyStats,
    LevelConfig,
    replay_hierarchy,
)
from repro.workload.ircache import (
    DIURNAL_PROFILE,
    IRCACHE_ALGORITHM_VERSION,
    IrcacheConfig,
    IrcacheGenerator,
    IrcacheStream,
    small_test_trace,
)
from repro.workload.compiled import CompiledTrace
from repro.workload.sharded import (
    ShardedCompiledTrace,
    ShardIntegrityError,
    compile_stream,
    compile_workload,
)
from repro.workload.streaming import (
    RequestBlock,
    TsvWorkload,
    Workload,
    iter_requests,
    materialize,
    rechunk,
)
from repro.workload.marking import (
    ContentMarking,
    MarkingRule,
    NoMarking,
    RequestMarking,
)
from repro.workload.replay import CachedRouter, ReplayStats, RequestOutcome, replay
from repro.workload.trace import Request, Trace
from repro.workload.zipf import ZipfSampler

__all__ = [
    "Request",
    "Trace",
    "ZipfSampler",
    "IrcacheConfig",
    "IrcacheGenerator",
    "IrcacheStream",
    "IRCACHE_ALGORITHM_VERSION",
    "small_test_trace",
    "DIURNAL_PROFILE",
    "Workload",
    "RequestBlock",
    "TsvWorkload",
    "CompiledTrace",
    "ShardedCompiledTrace",
    "ShardIntegrityError",
    "compile_stream",
    "compile_workload",
    "iter_requests",
    "materialize",
    "rechunk",
    "MarkingRule",
    "ContentMarking",
    "RequestMarking",
    "NoMarking",
    "CachedRouter",
    "CacheHierarchy",
    "TraceFit",
    "fit_trace",
    "fit_zipf_exponent",
    "HierarchyStats",
    "LevelConfig",
    "replay_hierarchy",
    "ReplayStats",
    "RequestOutcome",
    "replay",
]
