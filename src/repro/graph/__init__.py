"""Graph data structures, datasets, sampling and partitioning."""

from .datasets import (
    DATASET_ALIASES,
    PAPER_DATASETS,
    DatasetStats,
    dataset_stats,
    load_dataset,
    synthetic_graph,
)
from .graph import Graph
from .partition import partition_graph, partition_nodes
from .restriction import Restriction
from .sampling import MiniBatch, NeighborSampler, SampledBlock, minibatch_iterator

__all__ = [
    "Graph",
    "DatasetStats",
    "PAPER_DATASETS",
    "DATASET_ALIASES",
    "dataset_stats",
    "load_dataset",
    "synthetic_graph",
    "NeighborSampler",
    "SampledBlock",
    "MiniBatch",
    "minibatch_iterator",
    "partition_graph",
    "partition_nodes",
    "Restriction",
]
