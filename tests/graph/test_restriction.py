"""Restriction edge cases and batch independence.

* an **empty** miss set must short-circuit without building (or normalising)
  any propagation operator;
* a **full-shard** miss set must alias the graph's CSR and return the
  memoised full operator itself — no slicing, no column remap;
* a row's slice must not depend on which other rows share its flush, which
  is what lets every flush build its plan fresh instead of reusing one;
* the position-map construction must return exactly the arrays of the
  ``np.union1d`` + ``np.searchsorted`` construction it replaced (kept below
  as the oracle), and a column absent from the map must raise instead of
  wrapping to the last column.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph, Restriction
from repro.models import create_model
from repro.tensor.tensor import Tensor, no_grad

MODELS = ["GCN", "GS-Pool", "G-GCN", "GAT"]
OPERATOR_KINDS = [
    ("random_walk", True), ("random_walk", False), ("normalized", True), ("normalized", False)
]


class TestEdgeCases:
    def test_empty_miss_set_builds_no_operator(self, small_graph, monkeypatch):
        calls = []
        original = Graph.propagation_operator

        def counting(self, kind="random_walk", add_self_loops=False):
            calls.append(kind)
            return original(self, kind, add_self_loops=add_self_loops)

        monkeypatch.setattr(Graph, "propagation_operator", counting)
        restriction = Restriction(small_graph, np.empty(0, dtype=np.int64))
        operator = restriction.operator("random_walk", add_self_loops=True)
        assert operator.shape == (0, 0) and operator.nnz == 0
        assert restriction.num_rows == 0 and restriction.num_edges == 0
        assert calls == []  # the short-circuit never touched the graph

    def test_full_shard_miss_set_aliases_graph_and_operator(self, small_graph):
        rows = np.arange(small_graph.num_nodes, dtype=np.int64)
        restriction = Restriction(small_graph, rows)
        assert restriction.indptr is small_graph.indptr
        assert restriction.col_positions is small_graph.indices
        operator = restriction.operator("random_walk", add_self_loops=True)
        # The memoised full-graph operator itself, not a slice of it.
        assert operator is small_graph.random_walk_adjacency(add_self_loops=True)

    def test_full_shard_forward_restricted_equals_forward_full(self, small_graph):
        rows = np.arange(small_graph.num_nodes, dtype=np.int64)
        restriction = Restriction(small_graph, rows)
        for name in MODELS:
            model = create_model(name, small_graph.num_features, 16,
                                 small_graph.num_classes, seed=0)
            with no_grad():
                h = Tensor(small_graph.features[restriction.cols])
                restricted = model.layers[0].forward_restricted(h, restriction).data
                full = model.layers[0].forward_full(
                    Tensor(small_graph.features), small_graph
                ).data
            assert np.array_equal(restricted, full)


def _dense_over_all_columns(graph, restriction, kind, loops):
    """The sliced operator as a dense ``(num_rows, num_nodes)`` matrix."""
    dense = np.zeros((restriction.num_rows, graph.num_nodes))
    dense[:, restriction.cols] = restriction.operator(kind, add_self_loops=loops).toarray()
    return dense


class TestBatchIndependence:
    def _rows(self, graph, size, seed):
        return np.unique(np.random.default_rng(seed).choice(graph.num_nodes, size=size))

    @pytest.mark.parametrize("kind,loops", OPERATOR_KINDS)
    def test_operator_rows_independent_of_batch(self, small_graph, kind, loops):
        batch = self._rows(small_graph, 60, 0)
        subset = batch[::3]
        wide = _dense_over_all_columns(small_graph, Restriction(small_graph, batch), kind, loops)
        narrow = _dense_over_all_columns(small_graph, Restriction(small_graph, subset), kind, loops)
        assert np.array_equal(narrow, wide[np.searchsorted(batch, subset)])

    @pytest.mark.parametrize("name", MODELS)
    def test_forward_restricted_independent_of_batch(self, small_graph, name):
        model = create_model(name, small_graph.num_features, 16,
                             small_graph.num_classes, seed=0)
        batch = self._rows(small_graph, 60, 1)
        subset = batch[1::2]
        outputs = []
        for rows in (batch, subset):
            restriction = Restriction(small_graph, rows)
            with no_grad():
                h = Tensor(small_graph.features[restriction.cols])
                outputs.append(model.layers[0].forward_restricted(h, restriction).data)
        wide, narrow = outputs
        # Same tolerance as the restricted-vs-full gate: BLAS may block the
        # combination matmul differently for a different row count.
        np.testing.assert_allclose(
            narrow, wide[np.searchsorted(batch, subset)], rtol=1e-12, atol=1e-12
        )

    def test_rebuilt_restrictions_are_equal_but_share_nothing(self, small_graph):
        rows = self._rows(small_graph, 30, 2)
        first, second = Restriction(small_graph, rows), Restriction(small_graph, rows)
        assert np.array_equal(first.cols, second.cols)
        assert np.array_equal(first.col_positions, second.col_positions)
        a = first.operator("random_walk", add_self_loops=True)
        b = second.operator("random_walk", add_self_loops=True)
        assert a is not b  # the operator memo is per instance, not per row set
        assert np.array_equal(a.toarray(), b.toarray())

    def test_isolated_row_reads_only_itself(self):
        edges = np.array([[0, 1], [1, 3]])
        rng = np.random.default_rng(0)
        graph = Graph.from_edges(4, edges, rng.normal(size=(4, 6)), np.zeros(4, dtype=np.int64))
        restriction = Restriction(graph, np.array([2]))
        assert restriction.cols.tolist() == [2]
        assert restriction.num_edges == 0
        operator = restriction.operator("random_walk", add_self_loops=True)
        full = graph.random_walk_adjacency(add_self_loops=True)
        assert operator.shape == (1, 1)
        assert operator[0, 0] == full[2, 2]


# -- the former construction, kept as the oracle ------------------------------


def _reference_rows(indptr, rows):
    """``(indptr, edge_index)`` of ``rows``' CSR entries, one row at a time."""
    lengths = [int(indptr[row + 1] - indptr[row]) for row in rows]
    new_indptr = np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)]).astype(np.int64)
    edges = [np.arange(indptr[row], indptr[row + 1], dtype=np.int64) for row in rows]
    return new_indptr, np.concatenate(edges) if edges else np.empty(0, dtype=np.int64)


def _reference_remap(cols, values):
    positions = np.searchsorted(cols, values)
    if len(values):
        assert np.array_equal(cols[np.minimum(positions, len(cols) - 1)], values)
    return positions


def _reference_plan(graph, rows):
    """``np.union1d`` for the columns, ``np.searchsorted`` for every remap."""
    indptr, edges = _reference_rows(graph.indptr, rows)
    neighbors = graph.indices[edges]
    cols = np.union1d(rows, neighbors)
    return {
        "cols": cols,
        "indptr": indptr,
        "col_positions": _reference_remap(cols, neighbors),
        "row_positions": _reference_remap(cols, rows),
    }


def _reference_operator(graph, rows, cols, kind, loops):
    if not len(rows):
        return sp.csr_matrix((0, len(cols)), dtype=np.float64)
    matrix = graph.propagation_operator(kind, add_self_loops=loops)
    indptr, edges = _reference_rows(matrix.indptr, rows)
    positions = _reference_remap(cols, matrix.indices[edges])
    return sp.csr_matrix((matrix.data[edges], positions, indptr), shape=(len(rows), len(cols)))


@st.composite
def _graph_and_rows(draw):
    """A random graph with trailing isolated nodes and an optional hub (node
    0 adjacent to every other connected node), plus an empty, single-row,
    full or random sorted row set."""
    connected = draw(st.integers(min_value=1, max_value=30))
    isolated = draw(st.integers(min_value=0, max_value=5))
    node = st.integers(min_value=0, max_value=connected - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=80))
    if draw(st.booleans()):
        edges += [(0, other) for other in range(1, connected)]
    total = connected + isolated
    graph = Graph.from_edges(
        total, np.array(edges, dtype=np.int64).reshape(-1, 2),
        np.zeros((total, 2)), np.zeros(total, dtype=np.int64),
    )
    shape = draw(st.sampled_from(["empty", "single", "full", "subset"]))
    if shape == "empty":
        rows = []
    elif shape == "single":
        rows = [draw(st.integers(min_value=0, max_value=total - 1))]
    elif shape == "full":
        rows = range(total)
    else:
        rows = sorted(draw(st.sets(st.integers(min_value=0, max_value=total - 1))))
    return graph, np.array(rows, dtype=np.int64)


class TestAgainstUnionSearchsortedOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=_graph_and_rows())
    def test_plan_arrays_equal_the_reference(self, case):
        graph, rows = case
        restriction = Restriction(graph, rows)
        expected = _reference_plan(graph, rows)
        for name, array in expected.items():
            actual = getattr(restriction, name)
            assert actual.dtype == array.dtype, name
            assert np.array_equal(actual, array), name
        for kind, loops in OPERATOR_KINDS:
            actual = restriction.operator(kind, add_self_loops=loops)
            reference = _reference_operator(graph, rows, expected["cols"], kind, loops)
            assert actual.shape == reference.shape
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(actual, part), getattr(reference, part)), part

    def test_operator_entry_outside_cols_raises(self, small_graph, monkeypatch):
        rows = np.array([3, 7])
        restriction = Restriction(small_graph, rows)
        outside = np.setdiff1d(np.arange(small_graph.num_nodes), restriction.cols)
        # The last node is the column a wrapped ``-1`` position would read.
        assert small_graph.num_nodes - 1 in outside
        forged = small_graph.random_walk_adjacency().copy().tolil()
        forged[rows[0], small_graph.num_nodes - 1] = 0.5
        forged = forged.tocsr()
        monkeypatch.setattr(
            Graph, "propagation_operator", lambda self, kind, add_self_loops=False: forged
        )
        with pytest.raises(ValueError, match="missing neighbours"):
            restriction.operator("random_walk")
