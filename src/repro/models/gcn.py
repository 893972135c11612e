"""Graph Convolutional Network (Kipf & Welling) — Table I, row 1.

Aggregation: degree-normalised sum of neighbour features (no weight matrix,
hence low arithmetic intensity in Table II).  Combination:
``ReLU(W^k a_v^k)``.  Under neighbour sampling the degree-normalised sum is
approximated by the mean over the sampled neighbourhood plus the node itself,
as in the inductive GraphSAGE-GCN formulation.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..compression.compress import CompressionConfig
from ..graph.sampling import SampledBlock
from ..tensor.tensor import Tensor
from .base import (
    GNNLayer,
    GNNModel,
    apply_linear,
    combine_rows,
    parallel_spmm,
    register_model,
    stage_scope,
)

__all__ = ["GCNLayer", "GCN"]


class GCNLayer(GNNLayer):
    """One GCN layer: mean-aggregate sampled neighbours, then a dense/circulant FC."""

    has_aggregation_weights = False

    def __init__(
        self,
        in_features: int,
        out_features: int,
        compression: CompressionConfig,
        activation: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(in_features, out_features, compression)
        self.fc = compression.linear(in_features, out_features, phase="combination", rng=rng)
        self.fc.phase = "combination"
        self.activation = activation

    def forward(self, h: Tensor, block: SampledBlock) -> Tensor:
        h_self = h.index_select(block.self_index)                 # (D, F)
        h_neigh = h.index_select(block.neighbor_index.reshape(-1))
        h_neigh = h_neigh.reshape(block.num_dst, block.fanout, self.in_features)
        # Degree-normalised sum approximated by the sampled-neighbourhood mean
        # (neighbours and the node itself), cf. GraphSAGE's GCN aggregator.
        aggregated = (h_neigh.sum(axis=1) + h_self) / float(block.fanout + 1)
        out = apply_linear(self.fc, aggregated)
        return out.relu() if self.activation else out

    def forward_full(self, h: Tensor, graph) -> Tensor:
        # Full-graph limit of the sampled mean: one CSR SpMM with the
        # self-loop row-normalised operator D̂^{-1} (A + I), on one row slab
        # per core (bitwise equal to ``operator @ h``).
        operator = graph.random_walk_adjacency(add_self_loops=True)
        aggregated = Tensor(parallel_spmm(operator, h.data))
        out = apply_linear(self.fc, aggregated)
        return out.relu() if self.activation else out

    def prepare_full(self, graph) -> None:
        graph.random_walk_adjacency(add_self_loops=True)

    def aggregate_restricted(self, h: Tensor, restriction, timer=None) -> np.ndarray:
        with stage_scope(timer, "aggregation"):
            # Restricted SpMM: the requested rows of the frozen operator,
            # columns remapped into the batch-local index space.
            operator = restriction.operator("random_walk", add_self_loops=True)
            return operator @ h.data

    def combine_restricted(self, aggregated: np.ndarray, timer=None, out=None, index=None) -> Tensor:
        with stage_scope(timer, "combination"):
            return Tensor(combine_rows(self.fc, aggregated, index, self.activation, out))

    def forward_restricted(self, h: Tensor, restriction, timer=None, out=None) -> Tensor:
        return self.combine_restricted(self.aggregate_restricted(h, restriction, timer), timer, out)


@register_model("gcn")
class GCN(GNNModel):
    """K-layer GCN for node classification."""

    name = "GCN"

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        num_classes: int,
        num_layers: int = 2,
        compression: Optional[CompressionConfig] = None,
        dropout: float = 0.0,
        seed: Optional[int] = None,
    ) -> None:
        config = compression if compression is not None else CompressionConfig(block_size=1)
        rng = np.random.default_rng(seed)
        dims = [in_features] + [hidden_features] * (num_layers - 1) + [num_classes]
        layers: List[GCNLayer] = []
        for index in range(num_layers):
            layers.append(
                GCNLayer(
                    dims[index],
                    dims[index + 1],
                    config,
                    activation=index < num_layers - 1,
                    rng=rng,
                )
            )
        super().__init__(layers, dropout=dropout, seed=seed)
        self.in_features = in_features
        self.hidden_features = hidden_features
        self.num_classes = num_classes
        self.compression = config
