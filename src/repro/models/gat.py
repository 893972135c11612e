"""Graph Attention Network (Velickovic et al.) — Table I, row 4.

Aggregation: attention coefficients
``alpha_ij = softmax_j(LeakyReLU(a^T [W h_i || W h_j]))`` computed over the
sampled neighbourhood, then ``a_v = sum_j alpha_ij h_j``.  Combination:
``ELU(W^k a_v^k)``.  Multi-head attention concatenates the per-head outputs
(the paper profiles GAT with two 128-dimensional heads).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from ..compression.compress import CompressionConfig
from ..graph.sampling import SampledBlock
from ..nn.linear import row_tiled_matmul
from ..nn.module import Module, Parameter
from ..tensor import functional as F
from ..tensor.tensor import Tensor, concatenate
from .base import (
    GNNLayer,
    GNNModel,
    apply_linear,
    edge_destinations,
    parallel_spmm,
    register_model,
    segment_reduce,
    stage_scope,
    weighted_segment_sum,
)

__all__ = ["GATHead", "GATLayer", "GAT"]


class GATHead(Module):
    """One attention head: shared projection + additive attention + weighted sum."""

    def __init__(
        self,
        in_features: int,
        head_features: int,
        compression: CompressionConfig,
        negative_slope: float = 0.2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        generator = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.head_features = head_features
        self.negative_slope = negative_slope
        # The shared projection W is both the attention input and the
        # combination matrix of Table I; it is eligible for compression in
        # either phase, and the paper counts it with the aggregation FLOPs.
        self.project = compression.linear(in_features, head_features, phase="aggregation", rng=generator)
        self.project.phase = "aggregation"
        scale = float(np.sqrt(2.0 / (head_features + 1)))
        self.attention_self = Parameter(generator.normal(0.0, scale, size=head_features))
        self.attention_neighbor = Parameter(generator.normal(0.0, scale, size=head_features))

    def forward(self, h_self: Tensor, h_neigh: Tensor) -> Tensor:
        """Return the attention-weighted neighbour projection ``(D, head_features)``."""
        num_dst, fanout = h_neigh.shape[0], h_neigh.shape[1]
        z_self = apply_linear(self.project, h_self)                     # (D, H)
        z_neigh = apply_linear(self.project, h_neigh)                   # (D, S, H)
        # Additive attention a^T [z_i || z_j] decomposes into two dot products.
        logit_self = (z_self * self.attention_self).sum(axis=1)         # (D,)
        logit_neigh = (z_neigh * self.attention_neighbor).sum(axis=2)   # (D, S)
        logits = (logit_neigh + logit_self.reshape(num_dst, 1)).leaky_relu(self.negative_slope)
        attention = F.softmax(logits, axis=1)                           # (D, S)
        weighted = z_neigh * attention.reshape(num_dst, fanout, 1)
        return weighted.sum(axis=1)                                     # (D, H)

    def _logits(self, z: np.ndarray):
        """Both attention dot products of every row of ``z``, as one
        row-tiled GEMM: a GEMV's bits depend on how many rows share it."""
        vectors = np.stack([self.attention_self.data, self.attention_neighbor.data], axis=1)
        logits = row_tiled_matmul(z, vectors)
        return logits[:, 0], logits[:, 1]

    def forward_full(self, h: Tensor, graph, dst: Optional[np.ndarray] = None) -> Tensor:
        """Full-graph attention: softmax over each node's true neighbourhood.

        The shared projection and both attention dot products are computed
        once per node; the edge dimension only sees scalar logits and the
        segment-wise (numerically stabilised) softmax.  The softmax maximum is
        a :func:`segment_reduce`; its denominator and the attention-weighted
        sum of ``z`` are CSR SpMMs (:func:`weighted_segment_sum`), the latter
        on one row slab per core (:func:`parallel_spmm`).  ``dst``
        (the centre node of every CSR edge) can be passed in so multi-head
        layers build the O(E) array once instead of once per head.
        """
        z = apply_linear(self.project, h).data                          # (N, H)
        logit_self, logit_neigh = self._logits(z)                       # (N,), (N,)
        src = graph.indices
        if dst is None:
            dst = edge_destinations(graph)
        logits = logit_neigh[src] + logit_self[dst]                     # (E,)
        logits = np.where(logits > 0.0, logits, self.negative_slope * logits)
        seg_max, nonempty = segment_reduce(logits, graph.indptr, np.maximum)
        exponentials = np.exp(logits - seg_max[dst])
        seg_sum = weighted_segment_sum(exponentials, src, graph.indptr, np.ones(len(z)))
        attention = exponentials / seg_sum[dst]                         # (E,)
        # weighted_segment_sum's SpMM, on one row slab per core.
        weights = sp.csr_matrix((attention, src, graph.indptr), shape=(len(z), len(z)))
        out = parallel_spmm(weights, z)                                 # (N, H)
        # Isolated nodes attend to themselves (softmax over {v} is 1).
        out[~nonempty] = z[~nonempty]
        return Tensor(out)

    def forward_restricted(self, h: Tensor, restriction) -> Tensor:
        """Restricted-row attention: softmax over each row's true neighbours.

        The projection and both attention dot products cover the column set
        only; every segment reduction and SpMM runs over the sliced CSR, whose
        per-row edge order matches the parent graph — same sums, same maxima.
        """
        z = apply_linear(self.project, h).data                          # (C, H)
        logit_self, logit_neigh = self._logits(z)                       # (C,), (C,)
        src = restriction.col_positions
        row_positions = restriction.row_positions
        dst = restriction.edge_rows()                                   # (E,) row ordinal per edge
        logits = logit_neigh[src] + logit_self[row_positions][dst]      # (E,)
        logits = np.where(logits > 0.0, logits, self.negative_slope * logits)
        seg_max, nonempty = segment_reduce(logits, restriction.indptr, np.maximum)
        exponentials = np.exp(logits - seg_max[dst])
        seg_sum = weighted_segment_sum(exponentials, src, restriction.indptr, np.ones(len(z)))
        attention = exponentials / seg_sum[dst]                         # (E,)
        out = weighted_segment_sum(attention, src, restriction.indptr, z)  # (R, H)
        out[~nonempty] = z[row_positions[~nonempty]]
        return Tensor(out)


class GATLayer(GNNLayer):
    """One multi-head GAT layer (heads concatenated, ELU output)."""

    has_aggregation_weights = True

    def __init__(
        self,
        in_features: int,
        out_features: int,
        compression: CompressionConfig,
        num_heads: int = 2,
        activation: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(in_features, out_features, compression)
        if out_features % num_heads != 0:
            raise ValueError(
                f"out_features ({out_features}) must be divisible by num_heads ({num_heads})"
            )
        self.num_heads = num_heads
        head_features = out_features // num_heads
        self.heads = [
            GATHead(in_features, head_features, compression, rng=rng) for _ in range(num_heads)
        ]
        for index, head in enumerate(self.heads):
            setattr(self, f"head_{index}", head)
        self.activation = activation

    def forward(self, h: Tensor, block: SampledBlock) -> Tensor:
        h_self = h.index_select(block.self_index)
        h_neigh = h.index_select(block.neighbor_index.reshape(-1))
        h_neigh = h_neigh.reshape(block.num_dst, block.fanout, self.in_features)
        outputs = [head(h_self, h_neigh) for head in self.heads]
        out = outputs[0] if len(outputs) == 1 else concatenate(outputs, axis=1)
        return out.elu() if self.activation else out

    def forward_full(self, h: Tensor, graph) -> Tensor:
        dst = edge_destinations(graph)
        outputs = [head.forward_full(h, graph, dst=dst) for head in self.heads]
        out = outputs[0] if len(outputs) == 1 else concatenate(outputs, axis=1)
        return out.elu() if self.activation else out

    def forward_restricted(self, h: Tensor, restriction, timer=None, out=None, project=None) -> Tensor:
        # Attention (projection included) is the aggregation phase in the
        # paper's accounting; only the head concat + ELU count as combination.
        with stage_scope(timer, "aggregation"):
            outputs = [head.forward_restricted(h, restriction) for head in self.heads]
        with stage_scope(timer, "combination"):
            result = outputs[0] if len(outputs) == 1 else concatenate(outputs, axis=1)
            result = result.elu() if self.activation else result
            if project is not None:
                result = Tensor(row_tiled_matmul(result.data, project.dense_transposed()))
            if out is not None:
                buffer, positions = out
                buffer[positions] = result.data
            return result


@register_model("gat")
class GAT(GNNModel):
    """K-layer multi-head graph attention network."""

    name = "GAT"

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        num_classes: int,
        num_layers: int = 2,
        compression: Optional[CompressionConfig] = None,
        dropout: float = 0.0,
        seed: Optional[int] = None,
        num_heads: int = 2,
    ) -> None:
        config = compression if compression is not None else CompressionConfig(block_size=1)
        rng = np.random.default_rng(seed)
        dims = [in_features] + [hidden_features] * (num_layers - 1) + [num_classes]
        layers: List[GATLayer] = []
        for index in range(num_layers):
            is_last = index == num_layers - 1
            heads = 1 if is_last else num_heads
            layers.append(
                GATLayer(
                    dims[index],
                    dims[index + 1],
                    config,
                    num_heads=heads,
                    activation=not is_last,
                    rng=rng,
                )
            )
        super().__init__(layers, dropout=dropout, seed=seed)
        self.in_features = in_features
        self.hidden_features = hidden_features
        self.num_classes = num_classes
        self.num_heads = num_heads
        self.compression = config
