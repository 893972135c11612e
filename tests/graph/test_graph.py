"""Unit tests for the CSR Graph data structure."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.graph import Graph


@pytest.fixture
def triangle_graph():
    """A 4-node graph: triangle 0-1-2 plus an isolated node 3."""
    edges = np.array([[0, 1], [1, 2], [0, 2]])
    features = np.arange(8, dtype=float).reshape(4, 2)
    labels = np.array([0, 1, 0, 1])
    return Graph.from_edges(4, edges, features, labels, name="triangle")


class TestConstruction:
    def test_counts(self, triangle_graph):
        assert triangle_graph.num_nodes == 4
        assert triangle_graph.num_edges == 6  # 3 undirected edges stored twice
        assert triangle_graph.num_features == 2
        assert triangle_graph.num_classes == 2

    def test_neighbors_symmetric(self, triangle_graph):
        assert set(triangle_graph.neighbors(0)) == {1, 2}
        assert set(triangle_graph.neighbors(1)) == {0, 2}
        assert len(triangle_graph.neighbors(3)) == 0

    def test_degrees(self, triangle_graph):
        assert list(triangle_graph.degrees()) == [2, 2, 2, 0]

    def test_duplicate_and_self_edges_removed(self):
        edges = np.array([[0, 1], [1, 0], [0, 0], [0, 1]])
        graph = Graph.from_edges(2, edges, np.zeros((2, 1)), np.zeros(2, dtype=int))
        assert graph.num_edges == 2

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, np.array([[0, 5]]), np.zeros((2, 1)), np.zeros(2, dtype=int))

    def test_feature_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, np.array([[0, 1]]), np.zeros((2, 1)), np.zeros(3, dtype=int))

    def test_from_networkx(self):
        nx_graph = nx.path_graph(5)
        graph = Graph.from_networkx(nx_graph, np.zeros((5, 3)), np.zeros(5, dtype=int))
        assert graph.num_nodes == 5
        assert graph.num_edges == 8

    def test_validate_passes_on_well_formed_graph(self, triangle_graph):
        triangle_graph.validate()

    def test_validate_catches_corruption(self, triangle_graph):
        triangle_graph.indices[0] = 99
        with pytest.raises(ValueError):
            triangle_graph.validate()


class TestPropagationMatrices:
    def test_normalized_adjacency_symmetric(self, triangle_graph):
        norm = triangle_graph.normalized_adjacency().toarray()
        assert np.allclose(norm, norm.T)

    def test_normalized_adjacency_row_sums_bounded(self, triangle_graph):
        norm = triangle_graph.normalized_adjacency().toarray()
        assert (norm.sum(axis=1) <= 1.0 + 1e-9).all()

    def test_self_loops_included_by_default(self, triangle_graph):
        norm = triangle_graph.normalized_adjacency().toarray()
        assert norm[3, 3] == pytest.approx(1.0)  # isolated node keeps itself

    def test_random_walk_rows_sum_to_one_for_connected_nodes(self, triangle_graph):
        walk = triangle_graph.random_walk_adjacency().toarray()
        assert np.allclose(walk[:3].sum(axis=1), 1.0)

    def test_random_walk_with_self_loops_is_inclusive_mean(self, triangle_graph):
        walk = triangle_graph.random_walk_adjacency(add_self_loops=True).toarray()
        assert np.allclose(walk.sum(axis=1), 1.0)
        assert (np.diag(walk)[:3] > 0).all()

    def test_propagation_operators_memoised_and_read_only(self, triangle_graph):
        first = triangle_graph.normalized_adjacency()
        assert triangle_graph.normalized_adjacency() is first
        with pytest.raises(ValueError):
            first.data *= 2.0  # shared cache entry must reject in-place mutation
        assert triangle_graph.random_walk_adjacency() is triangle_graph.random_walk_adjacency()

    def test_adjacency_binary(self, triangle_graph):
        adjacency = triangle_graph.adjacency().toarray()
        assert set(np.unique(adjacency)) <= {0.0, 1.0}


class TestSubgraphAndSplits:
    def test_subgraph_relabels_nodes(self, triangle_graph):
        sub = triangle_graph.subgraph([0, 2])
        assert sub.num_nodes == 2
        assert sub.num_edges == 2  # the 0-2 edge survives
        assert np.allclose(sub.features, triangle_graph.features[[0, 2]])

    def test_subgraph_of_synthetic_is_valid(self, small_graph):
        sub = small_graph.subgraph(range(0, 50))
        sub.validate()
        assert sub.num_nodes == 50

    def test_split_nodes_partition(self, small_graph):
        train, val, test = small_graph.split_nodes()
        ids = np.concatenate([train, val, test])
        assert len(ids) == small_graph.num_nodes
        assert len(np.unique(ids)) == small_graph.num_nodes

    def test_summary_mentions_name_and_counts(self, small_graph):
        text = small_graph.summary()
        assert small_graph.name in text
        assert str(small_graph.num_nodes) in text


class TestRestriction:
    """Row-restricted operator slices (the serving fast path's building block)."""

    def test_cols_are_rows_union_neighbors(self, small_graph):
        from repro.graph import Restriction

        rows = np.array([3, 7, 11])
        restriction = Restriction(small_graph, rows)
        expected = set(rows.tolist())
        for row in rows:
            expected |= set(small_graph.neighbors(row).tolist())
        assert set(restriction.cols.tolist()) == expected
        assert restriction.num_rows == 3
        assert np.array_equal(
            restriction.cols[restriction.row_positions], rows
        )

    def test_restricted_operator_rows_match_full_operator(self, small_graph):
        rows = np.array([0, 5, 17, 40])
        from repro.graph import Restriction

        restriction = Restriction(small_graph, rows)
        for kind, loops in (("random_walk", True), ("random_walk", False), ("normalized", False)):
            full = (
                small_graph.random_walk_adjacency(loops)
                if kind == "random_walk"
                else small_graph.normalized_adjacency(loops)
            )
            sliced = restriction.operator(kind, add_self_loops=loops)
            assert sliced.shape == (len(rows), restriction.num_cols)
            dense = np.zeros((len(rows), small_graph.num_nodes))
            dense[:, restriction.cols] = sliced.toarray()
            assert np.array_equal(dense, full[rows].toarray())

    def test_operator_slices_are_memoised(self, small_graph):
        from repro.graph import Restriction

        restriction = Restriction(small_graph, np.array([1, 2]))
        first = restriction.operator("random_walk", add_self_loops=True)
        assert restriction.operator("random_walk", add_self_loops=True) is first

    def test_edge_rows_and_degrees(self, small_graph):
        from repro.graph import Restriction

        rows = np.array([2, 9])
        restriction = Restriction(small_graph, rows)
        degrees = restriction.row_degrees()
        assert np.array_equal(degrees, small_graph.degrees()[rows])
        assert np.array_equal(
            restriction.edge_rows(), np.repeat(np.arange(2), degrees)
        )
        # Per-edge neighbour ids survive the column remap.
        neighbors = restriction.cols[restriction.col_positions]
        expected = np.concatenate([small_graph.neighbors(r) for r in rows])
        assert np.array_equal(neighbors, expected)

    def test_missing_columns_raise(self, small_graph):
        from repro.graph import Graph, Restriction

        # A plan built where row 0 is isolated has cols == [0]; slicing the
        # real graph's operator through it misses every neighbour of row 0.
        edgeless = Graph.from_edges(
            small_graph.num_nodes, np.empty((0, 2)), small_graph.features, small_graph.labels
        )
        restriction = Restriction(edgeless, np.array([0]))
        assert restriction.cols.tolist() == [0]
        assert len(small_graph.neighbors(0))
        restriction.graph = small_graph
        with pytest.raises(ValueError, match="missing neighbours"):
            restriction.operator("random_walk")

    def test_restricted_operator_rejects_unknown_kind(self, small_graph):
        from repro.graph import Restriction

        with pytest.raises(ValueError, match="kind"):
            Restriction(small_graph, np.array([0])).operator(kind="magic")
