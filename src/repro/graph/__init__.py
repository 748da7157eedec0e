"""Graph substrate: CSR graphs, generators, I/O, partitioning, datasets."""

from .csr import CSRGraph
from .datasets import DATASETS, DatasetSpec, build_graph, dataset, dataset_names
from .generators import (
    add_random_weights,
    complete_graph,
    erdos_renyi,
    path_graph,
    powerlaw_graph,
    ring_graph,
    rmat,
    star_graph,
)
from .io import load_csr, read_edge_list, save_csr, write_edge_list
from .partition import DenseVertexMeta, GraphPartitioning, partition_graph
from .stats import GraphStats, compute_stats, estimate_powerlaw_exponent, gini

__all__ = [
    "CSRGraph",
    "DATASETS",
    "DatasetSpec",
    "build_graph",
    "dataset",
    "dataset_names",
    "add_random_weights",
    "complete_graph",
    "erdos_renyi",
    "path_graph",
    "powerlaw_graph",
    "ring_graph",
    "rmat",
    "star_graph",
    "load_csr",
    "read_edge_list",
    "save_csr",
    "write_edge_list",
    "DenseVertexMeta",
    "GraphPartitioning",
    "partition_graph",
    "GraphStats",
    "compute_stats",
    "estimate_powerlaw_exponent",
    "gini",
]
