"""FlashWalker reproduction.

A behavioral, event-driven reproduction of *FlashWalker: An In-Storage
Accelerator for Graph Random Walks* (Niu et al., IPDPS 2022), plus every
substrate it depends on: a CSR graph library with generators and a
fixed-size block partitioner, an SSD timing model (NAND arrays, ONFI
channels, FTL, DRAM), a random-walk algorithm layer, the GraphWalker
and DrunkardMob baselines, and the experiment harness that regenerates
the paper's figures and tables.

Quick start::

    from repro import FlashWalker, GraphWalker, WalkSpec
    from repro.graph import build_graph
    from repro.common import RngRegistry

    graph = build_graph("TT", RngRegistry(0))
    fw = FlashWalker(graph, seed=0)
    result = fw.run(num_walks=100_000, spec=WalkSpec(length=6))
    print(result.summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from .baselines import DrunkardMob, GraphWalker, GraphWalkerResult
from .common import FaultConfig, FlashWalkerConfig, GraphWalkerConfig, RngRegistry
from .core import FlashWalker, RunResult
from .faults import Checkpoint, CheckpointManager, FaultModel
from .graph import CSRGraph, build_graph, partition_graph
from .walks import WalkSpec

__version__ = "1.0.0"

__all__ = [
    "DrunkardMob",
    "GraphWalker",
    "GraphWalkerResult",
    "Checkpoint",
    "CheckpointManager",
    "FaultConfig",
    "FaultModel",
    "FlashWalkerConfig",
    "GraphWalkerConfig",
    "RngRegistry",
    "FlashWalker",
    "RunResult",
    "CSRGraph",
    "build_graph",
    "partition_graph",
    "WalkSpec",
    "__version__",
]
