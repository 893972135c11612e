"""GraphSAGE with the max-pooling aggregator ("GS-Pool") — Table I, row 2.

Aggregation: ``a_v = max_u ReLU(W_pool h_u + b)`` over the sampled
neighbours — the per-neighbour weight matrix is what makes GS-Pool the most
expensive model in Table II (1.9e12 FLOPs/layer on Reddit).  Combination:
``ReLU(W^k [a_v || h_v])``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..compression.compress import CompressionConfig
from ..graph.sampling import SampledBlock
from ..tensor.tensor import Tensor, concatenate
from .base import (
    GNNLayer,
    GNNModel,
    apply_linear,
    combine_rows,
    parallel_segment_reduce,
    register_model,
    segment_reduce,
    stage_scope,
)

__all__ = ["GraphSAGEPoolLayer", "GraphSAGEPool"]


def _gather(table: np.ndarray, index: np.ndarray):
    """The :func:`segment_reduce` operand ``table[index[e]]`` of edge ``e``,
    gathered straight into the sweep's scratch (``index`` is in range, so
    ``mode="wrap"`` changes nothing and skips ``"raise"``'s buffered copy)."""

    def fill(edges: np.ndarray, out: np.ndarray) -> None:
        np.take(table, index[edges], axis=0, out=out, mode="wrap")

    return fill


class GraphSAGEPoolLayer(GNNLayer):
    """One GS-Pool layer: per-neighbour FC + max pooling, then concat + FC."""

    has_aggregation_weights = True

    def __init__(
        self,
        in_features: int,
        out_features: int,
        compression: CompressionConfig,
        pool_features: Optional[int] = None,
        activation: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(in_features, out_features, compression)
        # Pool into the output (hidden) dimension by default, as in GraphSAGE.
        self.pool_features = pool_features if pool_features is not None else out_features
        self.pool_fc = compression.linear(in_features, self.pool_features, phase="aggregation", rng=rng)
        self.pool_fc.phase = "aggregation"
        self.combine_fc = compression.linear(
            self.pool_features + in_features, out_features, phase="combination", rng=rng
        )
        self.combine_fc.phase = "combination"
        self.activation = activation

    def forward(self, h: Tensor, block: SampledBlock) -> Tensor:
        h_self = h.index_select(block.self_index)                                   # (D, F)
        h_neigh = h.index_select(block.neighbor_index.reshape(-1))
        h_neigh = h_neigh.reshape(block.num_dst, block.fanout, self.in_features)     # (D, S, F)
        pooled = apply_linear(self.pool_fc, h_neigh).relu()                          # (D, S, P)
        aggregated = pooled.max(axis=1)                                              # (D, P)
        combined = concatenate([aggregated, h_self], axis=1)                          # (D, P + F)
        out = apply_linear(self.combine_fc, combined)
        return out.relu() if self.activation else out

    def forward_full(self, h: Tensor, graph) -> Tensor:
        # Project every node once, then take the neighbourhood max with a CSR
        # segment reduction — each node's pooled representation is shared by
        # all of its neighbours instead of being recomputed per sampled block.
        projected = apply_linear(self.pool_fc, h).relu().data                        # (N, P)
        src = graph.indices
        pooled, nonempty = parallel_segment_reduce(
            _gather(projected, src), graph.indptr, np.maximum, value_shape=projected.shape[1:]
        )
        # Isolated nodes mirror the sampler's self-loop fallback.
        pooled[~nonempty] = projected[~nonempty]
        combined = np.concatenate([pooled, h.data], axis=1)                          # (N, P + F)
        out = apply_linear(self.combine_fc, Tensor(combined))
        return out.relu() if self.activation else out

    def forward_restricted(self, h: Tensor, restriction, timer=None, out=None, project=None) -> Tensor:
        with stage_scope(timer, "aggregation"):
            # Project the restriction's column set once (every pooled
            # neighbour is in it), then max-reduce along the sliced CSR rows.
            projected = apply_linear(self.pool_fc, h).relu().data                    # (C, P)
            src = restriction.col_positions
            pooled, nonempty = segment_reduce(
                _gather(projected, src), restriction.indptr, np.maximum, value_shape=projected.shape[1:]
            )
            row_positions = restriction.row_positions
            pooled[~nonempty] = projected[row_positions[~nonempty]]
            combined = np.concatenate([pooled, h.data[row_positions]], axis=1)       # (R, P + F)
        with stage_scope(timer, "combination"):
            return Tensor(combine_rows(self.combine_fc, combined, None, self.activation, out, project))


@register_model("gs_pool")
class GraphSAGEPool(GNNModel):
    """K-layer GraphSAGE with max-pooling aggregators."""

    name = "GS-Pool"

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        num_classes: int,
        num_layers: int = 2,
        compression: Optional[CompressionConfig] = None,
        dropout: float = 0.0,
        seed: Optional[int] = None,
        pool_features: Optional[int] = None,
    ) -> None:
        config = compression if compression is not None else CompressionConfig(block_size=1)
        rng = np.random.default_rng(seed)
        dims = [in_features] + [hidden_features] * (num_layers - 1) + [num_classes]
        layers: List[GraphSAGEPoolLayer] = []
        for index in range(num_layers):
            layers.append(
                GraphSAGEPoolLayer(
                    dims[index],
                    dims[index + 1],
                    config,
                    pool_features=pool_features,
                    activation=index < num_layers - 1,
                    rng=rng,
                )
            )
        super().__init__(layers, dropout=dropout, seed=seed)
        self.in_features = in_features
        self.hidden_features = hidden_features
        self.num_classes = num_classes
        self.compression = config
