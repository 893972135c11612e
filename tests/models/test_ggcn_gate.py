"""The G-GCN gate ``sigma(gate_n[u] + gate_s[v]) * h_u`` in its exp forms.

The layers compute ``h / (1 + exp_n[u] * exp_s[v])`` from per-node
exponentials of the negated gate projections, and fall back to the per-edge
``h / (1 + exp(-logit))`` on rows that touch a per-node half beyond
``+-708``; ``scipy.special.expit`` serves only as the oracle here.  At extreme
logits the gate must reach its limits (``0`` and ``h``) without a NaN or a
warning.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import expit

from repro.compression import CompressionConfig
from repro.graph.graph import Graph
from repro.graph.restriction import Restriction
from repro.models import base, create_model
from repro.models.base import segment_reduce
from repro.models.ggcn import _gate, _gated_messages, _gated_sum, _node_gated_messages
from repro.tensor.tensor import Tensor, no_grad

pytestmark = pytest.mark.filterwarnings("error")


def test_extreme_logits_reach_the_limits_without_warnings():
    h = np.array([[1.5, -2.0, 3.0e300, 0.0]])
    closed = _gate(np.full(h.shape, 800.0), h)     # logit -800
    open_ = _gate(np.full(h.shape, -800.0), h)     # logit +800
    assert np.array_equal(closed, np.zeros_like(h))
    assert np.array_equal(open_, h)


def _messages(fill, edges, rows):
    """Run a gated-message operand on ``edges`` as the sweep does: into
    fresh ``out`` / ``work`` scratch, with ``rows`` the edges' row halves."""
    out, work = np.empty_like(rows), np.empty_like(rows)
    fill(edges, out, rows, work)
    return out


def test_extreme_per_edge_logits_through_the_message_sweep():
    """Each half of the logit is moderate; their per-edge sum is +-800."""
    features = np.array([[1.0, -4.0], [2.0, 0.5]])
    neg_n = np.array([[400.0, -400.0], [-400.0, 400.0]])
    neg_s = neg_n.copy()
    messages = _messages(_gated_messages(neg_n, features, np.array([0, 1])), np.array([0, 1]), neg_s)
    assert not np.isnan(messages).any()
    assert np.array_equal(messages, [[0.0, -4.0], [2.0, 0.0]])


def test_matches_expit_oracle_on_random_data():
    rng = np.random.default_rng(0)
    gate_n, gate_s, features = (rng.standard_normal((40, 16)) * 6.0 for _ in range(3))
    src = rng.integers(0, 40, size=300)
    dst = rng.integers(0, 40, size=300)
    edges = rng.permutation(300)
    expected = expit(gate_n[src[edges]] + gate_s[dst[edges]]) * features[src[edges]]
    per_edge = _messages(_gated_messages(-gate_n, features, src), edges, -gate_s[dst[edges]])
    np.testing.assert_allclose(per_edge, expected, rtol=1e-14, atol=0)
    per_node = _messages(
        _node_gated_messages(np.exp(-gate_n), features, src), edges, np.exp(-gate_s)[dst[edges]]
    )
    np.testing.assert_allclose(per_node, expected, rtol=1e-14, atol=0)


def _planted_case():
    """A random CSR graph whose gate halves are moderate except planted ones.

    Features are positive, so the row sums do not cancel and a relative
    bound on them bounds every gate.  Each planted half lies beyond ``+-708``
    (where ``exp`` of the half overflows or leaves the normal range).  Every
    logit is either moderate or beyond ``+-750``, where ``expit`` is exactly
    ``0`` or ``1``: between them the oracle's result is subnormal.
    """
    rng = np.random.default_rng(3)
    num_nodes, num_features = 14, 6
    lengths = rng.integers(0, 6, size=num_nodes)
    lengths[[4, 9]] = 0                                   # isolated rows
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    src = rng.integers(0, num_nodes, size=int(indptr[-1]))
    src[indptr[1]] = 5                                    # row 1 has neighbour 5
    src[indptr[2]] = 6                                    # row 2 has neighbour 6
    dst = np.repeat(np.arange(num_nodes), lengths)
    gate_n = np.clip(rng.standard_normal((num_nodes, num_features)) * 2.0, -5.0, 5.0)
    gate_s = np.clip(rng.standard_normal((num_nodes, num_features)) * 2.0, -5.0, 5.0)
    features = rng.uniform(0.5, 2.0, size=(num_nodes, num_features))
    # Alone: one extreme half, the other moderate.
    gate_n[5, 0], gate_n[5, 1] = 800.0, -800.0            # a neighbour's half
    gate_s[3, 2], gate_s[3, 3] = 900.0, -1.0e4            # a row's own half
    # Just beyond the limit: the logit stays where expit is a normal float.
    gate_n[:, 5] = rng.uniform(2.0, 5.0, size=num_nodes)
    gate_s[7, 5], gate_s[8, 5] = -709.0, 709.0
    # Paired: two extreme halves whose sum is moderate (inf * 0 per node)
    # or extreme with one sign.
    gate_n[6, 4], gate_s[2, 4] = 1000.0, -1000.5
    gate_n[6, 2], gate_s[2, 2] = -800.0, -900.0
    return gate_n, gate_s, features, src, dst, indptr


def _expit_row_sums(gate_n, gate_s, features, src, dst, indptr):
    messages = expit(gate_n[src] + gate_s[dst]) * features[src]
    out = np.zeros((len(indptr) - 1, features.shape[1]))
    for row in range(len(indptr) - 1):
        for edge in range(indptr[row], indptr[row + 1]):
            out[row] = out[row] + messages[edge]
    return out


@pytest.mark.parametrize("cores", [1, 2, 7])
def test_extreme_halves_match_the_expit_oracle(monkeypatch, cores):
    gate_n, gate_s, features, src, dst, indptr = _planted_case()
    monkeypatch.setattr(base, "_core_count", lambda: cores)
    for reduce in (segment_reduce, base.parallel_segment_reduce):
        sums, nonempty = _gated_sum(-gate_n, -gate_s, features, src, indptr, reduce)
        assert not np.isnan(sums).any()
        expected = _expit_row_sums(gate_n, gate_s, features, src, dst, indptr)
        np.testing.assert_allclose(sums, expected, rtol=1e-14, atol=0)
        assert np.array_equal(nonempty, np.diff(indptr) > 0)


def test_only_rows_touching_an_extreme_half_take_the_per_edge_form():
    """Rows off the planted halves keep the per-node form's bits."""
    gate_n, gate_s, features, src, dst, indptr = _planted_case()
    sums, _ = _gated_sum(-gate_n, -gate_s, features, src, indptr, segment_reduce)
    per_node, _ = segment_reduce(
        _node_gated_messages(np.exp(np.clip(-gate_n, -708.0, 708.0)), features, src),
        indptr, np.add, np.exp(np.clip(-gate_s, -708.0, 708.0)), features.shape[1:],
    )
    per_edge, _ = segment_reduce(
        _gated_messages(-gate_n, features, src), indptr, np.add, -gate_s, features.shape[1:]
    )
    outside_n = (np.abs(gate_n) > 708.0).any(axis=1)
    picked = np.zeros(len(indptr) - 1, dtype=bool)
    picked[dst[outside_n[src]]] = True
    picked |= (np.abs(gate_s) > 708.0).any(axis=1) & (np.diff(indptr) > 0)
    assert picked.sum() >= 4
    assert np.array_equal(sums[picked], per_edge[picked])
    assert np.array_equal(sums[~picked], per_node[~picked])


@pytest.fixture
def planted_graph():
    """A small graph in which node 0's raw features are scaled by 1e4, so
    its first-layer gate halves lie far beyond +-708."""
    rng = np.random.default_rng(5)
    num_nodes = 24
    edges = np.unique(rng.integers(0, num_nodes, size=(70, 2)), axis=0)
    edges = edges[edges[:, 0] != edges[:, 1]]
    features = rng.standard_normal((num_nodes, 8))
    features[0] *= 1.0e4
    labels = rng.integers(0, 3, num_nodes)
    return Graph.from_edges(num_nodes, edges, features, labels, name="planted")


def _ggcn(graph):
    model = create_model(
        "G-GCN", graph.num_features, 8, graph.num_classes,
        compression=CompressionConfig(block_size=4), seed=1,
    )
    model.eval()
    return model


def test_planted_extreme_node_served_rows_equal_full_forward(planted_graph):
    model = _ggcn(planted_graph)
    layer = model.layers[0]
    with no_grad():
        halves = [gate(Tensor(planted_graph.features)).data for gate in (layer.gate_neighbor, layer.gate_self)]
    assert all(np.abs(half[0]).max() > 708.0 for half in halves)
    assert all(np.abs(half[1:]).max() < 708.0 for half in halves)
    assert len(planted_graph.neighbors(0)) > 0

    full = model.full_forward(planted_graph).data
    assert np.isfinite(full).all()
    restriction = Restriction(planted_graph, np.arange(planted_graph.num_nodes))
    h = Tensor(planted_graph.features)
    with no_grad():
        for each in model.layers:
            h = each.forward_restricted(h, restriction)
    assert np.array_equal(h.data, full)

    # One layer over a few rows, the planted node's neighbours among them.
    rows = np.union1d(planted_graph.neighbors(0)[:2], [3, 11])
    few = Restriction(planted_graph, rows)
    with no_grad():
        served = layer.forward_restricted(Tensor(planted_graph.features[few.cols]), few).data
        offline = layer.forward_full(Tensor(planted_graph.features), planted_graph).data
    assert np.array_equal(served, offline[rows])
