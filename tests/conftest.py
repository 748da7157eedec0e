"""Shared fixtures for the FlashWalker reproduction test suite."""

from __future__ import annotations

import sys

import numpy as np
import pytest

try:
    import resource
except ImportError:  # pragma: no cover - not on Windows
    resource = None

from repro.common import FlashWalkerConfig, RngRegistry
from repro.graph import CSRGraph, partition_graph, powerlaw_graph, rmat


#: Largest rise, in MB, that one test may cause in the peak resident set
#: of the test process or of its largest finished child process.  Tier-1
#: has to finish on an 8 GB / 2-core host; today's heaviest tests raise
#: the process peak by about 130 MB (cluster failover) and a child's by
#: about 350 MB (the experiment-tables CLI).  A test over budget fails by
#: name at teardown, wherever the host still has room to finish it,
#: instead of growing until the kernel kills the whole run.
RSS_BUDGET_MB = 1024


def _peak_rss_mb() -> tuple[float, float]:
    """Peak RSS of this process and of its largest reaped child (MB)."""
    scale = 2**20 if sys.platform == "darwin" else 2**10  # bytes vs KiB
    return tuple(
        resource.getrusage(who).ru_maxrss / scale
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )


@pytest.fixture(autouse=True)
def _rss_budget():
    if resource is None:
        yield
        return
    before = _peak_rss_mb()
    yield
    grown = [a - b for a, b in zip(_peak_rss_mb(), before)]
    for who, mb in zip(("test process", "child process"), grown):
        if mb > RSS_BUDGET_MB:
            pytest.fail(
                f"{who} peak RSS grew {mb:.0f} MB in this test "
                f"(budget {RSS_BUDGET_MB} MB, tests/conftest.py)"
            )


@pytest.fixture
def rngs() -> RngRegistry:
    return RngRegistry(12345)


@pytest.fixture
def rng(rngs) -> np.random.Generator:
    return rngs.stream("test")


@pytest.fixture
def small_graph(rng) -> CSRGraph:
    """A 1024-vertex RMAT graph, skewed, with dead ends."""
    return rmat(10, 8, rng)


@pytest.fixture
def skewed_graph(rng) -> CSRGraph:
    """Power-law graph with dense vertices under a 4 KB block size."""
    return powerlaw_graph(2000, 60_000, rng, exponent=0.9)


@pytest.fixture
def tiny_config() -> FlashWalkerConfig:
    """FlashWalker config shrunk for fast engine tests."""
    return FlashWalkerConfig().replace(
        partition_subgraphs=64,
        board_hot_subgraphs=4,
        channel_hot_subgraphs=1,
    )


@pytest.fixture
def diamond_graph() -> CSRGraph:
    """0 -> {1, 2} -> 3 -> 0: deterministic structure for walk checks."""
    src = np.array([0, 0, 1, 2, 3])
    dst = np.array([1, 2, 3, 3, 0])
    return CSRGraph.from_edge_list(src, dst, num_vertices=4)


def make_partitioning(graph: CSRGraph, subgraph_bytes: int = 4096):
    return partition_graph(graph, subgraph_bytes)
