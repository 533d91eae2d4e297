"""The paper's contribution: NPU MMU models (oracle, IOMMU, NeuMMU).

Public surface:

* :class:`MMUConfig` plus the three canonical factories
  (:func:`oracle_config`, :func:`baseline_iommu_config`,
  :func:`neummu_config`) spanning the paper's design space;
* :class:`MMU` — the translation state machine;
* :class:`TranslationEngine` — replays DMA bursts against an MMU and the
  shared memory system, producing memory-phase timings;
* component models (:class:`TLB`, :class:`PendingTranslationScoreboard`,
  :class:`MergeBuffer`, :class:`TPreg`, :class:`TranslationPathCache`,
  :class:`UnifiedPageTableCache`, :class:`WalkerPool`) for unit-level
  studies.
"""

from .engine import BurstResult, FaultHandler, TranslationEngine
from .mmu import (
    MMU,
    MMUConfig,
    PATH_CACHE_KINDS,
    SharedMMU,
    TenantUsage,
    TranslationFault,
    baseline_iommu_config,
    neummu_config,
    oracle_config,
)
from .mmu_cache import (
    NullPathCache,
    PathCache,
    PathCacheStats,
    TranslationPathCache,
    UnifiedPageTableCache,
)
from .prmb import MergeBuffer, MergeBufferStats
from .pts import PendingTranslationScoreboard
from .ptw import WalkerPool, WalkerPoolStats
from .qos import (
    ARBITRATION_POLICIES,
    SHARE_POLICIES,
    Arbiter,
    FullShare,
    PriorityArbiter,
    RoundRobinArbiter,
    SharePolicy,
    StaticPartition,
    WeightedQuantumArbiter,
    WeightedShare,
    jain_index,
    make_arbiter,
    make_share_policy,
)
from .stats import RunSummary, TranslationStats, delta
from .stream import Transaction
from .tlb import TLB
from .tpreg import TPreg, TPregStats
from .walk_info import WalkInfo, WalkResolver

__all__ = [
    "ARBITRATION_POLICIES",
    "MMU",
    "MMUConfig",
    "PATH_CACHE_KINDS",
    "SHARE_POLICIES",
    "Arbiter",
    "BurstResult",
    "FullShare",
    "PriorityArbiter",
    "RoundRobinArbiter",
    "SharePolicy",
    "StaticPartition",
    "WeightedQuantumArbiter",
    "WeightedShare",
    "FaultHandler",
    "MergeBuffer",
    "MergeBufferStats",
    "NullPathCache",
    "PathCache",
    "PathCacheStats",
    "PendingTranslationScoreboard",
    "RunSummary",
    "SharedMMU",
    "TLB",
    "TPreg",
    "TenantUsage",
    "TPregStats",
    "Transaction",
    "TranslationEngine",
    "TranslationFault",
    "TranslationPathCache",
    "TranslationStats",
    "UnifiedPageTableCache",
    "WalkInfo",
    "WalkResolver",
    "WalkerPool",
    "WalkerPoolStats",
    "baseline_iommu_config",
    "delta",
    "jain_index",
    "make_arbiter",
    "make_share_policy",
    "neummu_config",
    "oracle_config",
]
