"""Graph Convolutional Network (Kipf & Welling) — Table I, row 1.

Aggregation: degree-normalised sum of neighbour features (no weight matrix,
hence low arithmetic intensity in Table II).  Combination:
``ReLU(W^k a_v^k)``.  Under neighbour sampling the degree-normalised sum is
approximated by the mean over the sampled neighbourhood plus the node itself,
as in the inductive GraphSAGE-GCN formulation.

Because the aggregation reads no weight, ``(Â·H)·Wᵀ = Â·(H·Wᵀ)``: inference
may combine first.  Every layer after the first whose output is narrower
than its input does (``combines_first``, set from the layer shapes by
:class:`GCN`): it multiplies its input rows by ``Wᵀ`` and then aggregates
the narrower product, so the output layer's SpMM on ``rd1``/``rd2`` runs at
41 columns instead of 128.  The serving store then holds the product
``H·Wᵀ`` as the previous layer's rows (:meth:`GNNModel.stored_rows`).  The
first layer keeps aggregation first, because the serving worker memoises
its weight-free ``Â·X`` across weight versions.  Training (:meth:`forward`)
and the Section III-D perfmodel keep the paper's aggregation-first order:
the perfmodel models the accelerator, which aggregates first.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..compression.compress import CompressionConfig
from ..graph.sampling import SampledBlock
from ..nn.linear import row_tiled_matmul
from ..nn.module import Module
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
    """One GCN layer: mean-aggregate sampled neighbours, then a dense/circulant FC.

    With ``combines_first`` its inference (:meth:`forward_full`,
    :meth:`forward_restricted`) computes ``Â·(H·Wᵀ) + b`` instead.
    """

    has_aggregation_weights = False

    def __init__(
        self,
        in_features: int,
        out_features: int,
        compression: CompressionConfig,
        activation: bool = True,
        rng: Optional[np.random.Generator] = None,
        combines_first: bool = False,
    ) -> None:
        super().__init__(in_features, out_features, compression)
        self.fc = compression.linear(in_features, out_features, phase="combination", rng=rng)
        self.fc.phase = "combination"
        self.activation = activation
        self.combines_first = combines_first

    @property
    def input_projection(self) -> Optional[Module]:
        return self.fc if self.combines_first else None

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
        if self.combines_first:
            product = row_tiled_matmul(h.data, self.fc.dense_transposed())
            return Tensor(self._finish(parallel_spmm(operator, product)))
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

    def combine_restricted(
        self, aggregated: np.ndarray, timer=None, out=None, index=None, project=None
    ) -> Tensor:
        with stage_scope(timer, "combination"):
            return Tensor(combine_rows(self.fc, aggregated, index, self.activation, out, project))

    def forward_restricted(self, h: Tensor, restriction, timer=None, out=None, project=None) -> Tensor:
        if not self.combines_first:
            aggregated = self.aggregate_restricted(h, restriction, timer)
            return self.combine_restricted(aggregated, timer, out, project=project)
        product = h.data
        if product.shape[1] != self.out_features:  # input rows, not yet times Wᵀ
            with stage_scope(timer, "combination"):
                product = row_tiled_matmul(product, self.fc.dense_transposed())
        aggregated = self.aggregate_restricted(Tensor(product), restriction, timer)
        with stage_scope(timer, "combination"):
            result = self._finish(aggregated)
            if project is not None:
                result = row_tiled_matmul(result, project.dense_transposed())
            if out is not None:
                buffer, positions = out
                buffer[positions] = result
            return Tensor(result)

    def _finish(self, aggregated: np.ndarray) -> np.ndarray:
        """Bias and activation, in place, on a combine-first layer's ``Â·(H·Wᵀ)``."""
        if self.fc.bias is not None:
            np.add(aggregated, self.fc.bias.data, out=aggregated)
        if self.activation:
            np.maximum(aggregated, 0.0, out=aggregated)
        return aggregated


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
                    combines_first=index > 0 and dims[index + 1] < dims[index],
                )
            )
        super().__init__(layers, dropout=dropout, seed=seed)
        self.in_features = in_features
        self.hidden_features = hidden_features
        self.num_classes = num_classes
        self.compression = config
