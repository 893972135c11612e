"""Gated Graph Convolutional Network (G-GCN, Marcheggiani & Titov) — Table I, row 3.

Aggregation: per-edge sigmoid gates ``eta_u = sigma(W_H h_u + W_C h_v)``
modulate the neighbour features before summation — two weight matrices in the
aggregator, which is why G-GCN has the largest aggregation FLOP count in
Table II (3.7e12 on Reddit).  Combination: ``ReLU(W^k a_v^k)``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..compression.compress import CompressionConfig
from ..graph.restriction import _row_slices
from ..graph.sampling import SampledBlock
from ..tensor.tensor import Tensor
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

__all__ = ["GGCNLayer", "GGCN"]


#: Largest per-node gate half whose ``exp`` is a finite, normal float
#: (``exp(708) ~ 3e307``, ``exp(-708) ~ 3.3e-308``).
_NODE_EXP_LIMIT = 708.0


def _gate(neg_logits: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``sigma(logits) * h`` as ``h / (1 + exp(-logits))``, in place in ``neg_logits``.

    The formula :meth:`Tensor.sigmoid` (the sampled path) uses, with numpy's
    vectorised ``exp``.  A logit <= -709 overflows ``exp`` to ``inf`` and
    gives ``h / inf = 0``, the correct limit, so that overflow is silenced.
    """
    with np.errstate(over="ignore"):
        np.exp(neg_logits, out=neg_logits)
    neg_logits += 1.0
    return np.divide(h, neg_logits, out=neg_logits)


def _gated_messages(neg_n, features, src):
    """Per-edge ``sigma(gate_n[u] + gate_s[v]) * h_u`` for a slice of edges.

    ``neg_n`` / ``neg_s`` are the negated gate projections (negated once per
    node: ``(-a) + (-b) == -(a + b)`` exactly).  Handed to
    :func:`segment_reduce` as its callable operand with the rows' own
    ``neg_s`` as the row operand, so only the edges being folded in are
    materialised — never an ``(E, F)`` array — and each lands in the sweep's
    scratch.  One ``exp`` per edge and feature: :func:`_gated_sum` uses it
    only for the rows whose per-node halves leave ``exp``'s normal range.
    """

    def messages(edges: np.ndarray, out: np.ndarray, neg_s: np.ndarray, work: np.ndarray) -> None:
        neighbours = src[edges]
        np.take(features, neighbours, axis=0, out=work, mode="wrap")
        np.take(neg_n, neighbours, axis=0, out=out, mode="wrap")
        out += neg_s
        _gate(out, work)

    return messages


def _node_gated_messages(exp_n, features, src):
    """:func:`_gated_messages` from per-node exponentials: ``h_u / (1 + exp_n[u] * exp_s[v])``.

    ``exp_n = exp(-gate_n)`` and ``exp_s = exp(-gate_s)`` are computed once
    per node, so the edge dimension runs a multiply in place of an ``exp``;
    ``exp_s`` is the sweep's row operand, read once per row rather than once
    per edge.  Both factors are finite and non-zero, so the product never
    gives ``0 * inf``; a product beyond the float range overflows to ``inf``
    and gives ``h / inf = 0``, the same limit as the per-edge form.
    """

    def messages(edges: np.ndarray, out: np.ndarray, exp_s: np.ndarray, work: np.ndarray) -> None:
        neighbours = src[edges]
        np.take(features, neighbours, axis=0, out=work, mode="wrap")
        np.take(exp_n, neighbours, axis=0, out=out, mode="wrap")
        with np.errstate(over="ignore"):
            out *= exp_s
        out += 1.0
        np.divide(work, out, out=out)

    return messages


def _node_exp(neg: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``exp(neg)`` over ``neg`` clipped to ``+-_NODE_EXP_LIMIT``, and the nodes with a clipped entry."""
    clipped = np.clip(neg, -_NODE_EXP_LIMIT, _NODE_EXP_LIMIT)
    outside = (clipped != neg).any(axis=1)
    return np.exp(clipped, out=clipped), outside


def _gated_sum(neg_n, neg_s, features, src, indptr, reduce):
    """Per-row sums of ``sigma(gate_n[u] + gate_s[v]) * h_u`` over CSR ``indptr``.

    ``neg_n`` and ``features`` are indexed by the neighbour ids in ``src``;
    ``neg_s`` holds each CSR row's own half, one row per row of ``indptr``
    (the full graph passes every node's, a restriction its rows').
    Returns ``reduce``'s ``(sums, nonempty)``; ``reduce`` is
    :func:`segment_reduce` or :func:`parallel_segment_reduce`.  Every row
    folds :func:`_node_gated_messages` with ``exp(neg_s)`` as the row
    operand (2·N·F ``exp`` calls instead of E·F, and no per-edge gather of
    the row's own half), except the rows that touch a per-node half beyond
    ``_NODE_EXP_LIMIT``: their own ``gate_s`` or any neighbour's ``gate_n``.
    Those rows are recomputed with the per-edge :func:`_gated_messages`, in
    the same edge order.  The rule reads only a row's own edges, so the
    full-graph and restricted paths pick the same rows and stay bitwise
    equal.  (The sweep's value for a picked row is computed from clipped
    halves and then discarded.)
    """
    exp_n, outside_n = _node_exp(neg_n)
    exp_s, outside_s = _node_exp(neg_s)
    shape = features.shape[1:]
    sums, nonempty = reduce(_node_gated_messages(exp_n, features, src), indptr, np.add, exp_s, shape)
    if outside_n.any() or outside_s.any():
        picked = outside_s & nonempty
        picked[np.searchsorted(indptr, np.flatnonzero(outside_n[src]), side="right") - 1] = True
        rows = np.flatnonzero(picked)
        row_indptr, row_edges = _row_slices(indptr, rows)
        per_edge = _gated_messages(neg_n, features, src)
        sums[rows] = segment_reduce(
            lambda local, *scratch: per_edge(row_edges[local], *scratch),
            row_indptr, np.add, neg_s[rows], shape,
        )[0]
    return sums, nonempty


class GGCNLayer(GNNLayer):
    """One G-GCN layer: gated neighbour sum, then a dense/circulant FC."""

    has_aggregation_weights = True

    def __init__(
        self,
        in_features: int,
        out_features: int,
        compression: CompressionConfig,
        activation: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(in_features, out_features, compression)
        # Gates live in the input-feature space: eta_u has one value per feature.
        self.gate_neighbor = compression.linear(in_features, in_features, phase="aggregation", rng=rng)
        self.gate_neighbor.phase = "aggregation"
        self.gate_self = compression.linear(in_features, in_features, phase="aggregation", rng=rng)
        self.gate_self.phase = "aggregation"
        self.fc = compression.linear(in_features, out_features, phase="combination", rng=rng)
        self.fc.phase = "combination"
        self.activation = activation

    def forward(self, h: Tensor, block: SampledBlock) -> Tensor:
        h_self = h.index_select(block.self_index)                                   # (D, F)
        h_neigh = h.index_select(block.neighbor_index.reshape(-1))
        h_neigh = h_neigh.reshape(block.num_dst, block.fanout, self.in_features)     # (D, S, F)
        gate_logits = apply_linear(self.gate_neighbor, h_neigh) + apply_linear(
            self.gate_self, h_self
        ).reshape(block.num_dst, 1, self.in_features)
        gates = gate_logits.sigmoid()                                                # (D, S, F)
        aggregated = (gates * h_neigh).sum(axis=1) / float(block.fanout)             # (D, F)
        out = apply_linear(self.fc, aggregated)
        return out.relu() if self.activation else out

    def forward_full(self, h: Tensor, graph) -> Tensor:
        # Both gate projections are computed once per node; the per-edge gate
        # only combines the two cached projections, so the weight matrices
        # never touch the (much larger) edge dimension.
        neg_n = -apply_linear(self.gate_neighbor, h).data                            # (N, F)
        neg_s = -apply_linear(self.gate_self, h).data                                # (N, F)
        features = h.data
        # Row slabs across cores, bitwise equal to the serial sweep.
        aggregated, nonempty = _gated_sum(
            neg_n, neg_s, features, graph.indices, graph.indptr, parallel_segment_reduce
        )
        aggregated /= np.maximum(np.diff(graph.indptr), 1)[:, None]
        if not nonempty.all():
            # Sampler fallback: isolated nodes gate and aggregate themselves.
            isolated = ~nonempty
            aggregated[isolated] = _gate(neg_n[isolated] + neg_s[isolated], features[isolated])
        out = apply_linear(self.fc, Tensor(aggregated))
        return out.relu() if self.activation else out

    def forward_restricted(self, h: Tensor, restriction, timer=None, out=None, project=None) -> Tensor:
        with stage_scope(timer, "aggregation"):
            # The neighbour half over the column set, the self half over the
            # rows only (the GEMM is row-tiled, so a row's bits do not depend
            # on the rows beside it); the sliced edge dimension combines them
            # exactly as the full-graph path does (same edge order, same
            # per-row segments).
            features = h.data
            neg_n = -apply_linear(self.gate_neighbor, h).data                         # (C, F)
            row_inputs = Tensor(features[restriction.row_positions])
            neg_s = -apply_linear(self.gate_self, row_inputs).data                    # (R, F)
            aggregated, nonempty = _gated_sum(
                neg_n, neg_s, features, restriction.col_positions, restriction.indptr, segment_reduce
            )
            aggregated /= np.maximum(restriction.row_degrees(), 1)[:, None]
            if not nonempty.all():
                isolated = ~nonempty
                own = restriction.row_positions[isolated]
                aggregated[isolated] = _gate(neg_n[own] + neg_s[isolated], features[own])
        with stage_scope(timer, "combination"):
            return Tensor(combine_rows(self.fc, aggregated, None, self.activation, out, project))


@register_model("ggcn")
class GGCN(GNNModel):
    """K-layer gated GCN."""

    name = "G-GCN"

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
        layers: List[GGCNLayer] = []
        for index in range(num_layers):
            layers.append(
                GGCNLayer(
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
