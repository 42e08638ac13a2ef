"""Workloads: synthetic IRCache-style traces and the replay harness."""

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
    Request,
    RequestBlock,
    TsvWorkload,
    Workload,
    iter_requests,
    rechunk,
    save_tsv,
)
from repro.workload.marking import (
    ContentMarking,
    MarkingRule,
    NoMarking,
    RequestMarking,
)
from repro.workload.replay import CachedRouter, ReplayStats, RequestOutcome, replay
from repro.workload.zipf import ZipfSampler

__all__ = [
    "Request",
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
    "rechunk",
    "save_tsv",
    "MarkingRule",
    "ContentMarking",
    "RequestMarking",
    "NoMarking",
    "CachedRouter",
    "CacheHierarchy",
    "HierarchyStats",
    "LevelConfig",
    "replay_hierarchy",
    "ReplayStats",
    "RequestOutcome",
    "replay",
]
