"""FlashWalker core: accelerators, tables, scheduling, the engine."""

from .advance import AdvanceContext, AdvanceResult, advance_batch
from .bloom import BloomFilter
from .board_accel import BoardAccelerator
from .buffers import ForeignerStore, PartitionWalkBuffer, WalkBatch
from .channel_accel import ChannelAccelerator
from .chip_accel import ChipAccelerator
from .dense import DenseVertexTable, PreWalkResult
from .energy import EnergyBreakdown, EnergyModel
from .flashwalker import FlashWalker
from .mapping import RangeTable, SubgraphMappingTable, binary_search_steps
from .metrics import RunMetrics, RunResult
from .query_cache import QueryCacheArray, WalkQueryCache
from .scheduler import SubgraphScheduler

__all__ = [
    "AdvanceContext",
    "AdvanceResult",
    "advance_batch",
    "BloomFilter",
    "BoardAccelerator",
    "ForeignerStore",
    "PartitionWalkBuffer",
    "WalkBatch",
    "ChannelAccelerator",
    "ChipAccelerator",
    "DenseVertexTable",
    "PreWalkResult",
    "EnergyBreakdown",
    "EnergyModel",
    "FlashWalker",
    "RangeTable",
    "SubgraphMappingTable",
    "binary_search_steps",
    "RunMetrics",
    "RunResult",
    "QueryCacheArray",
    "WalkQueryCache",
    "SubgraphScheduler",
]
