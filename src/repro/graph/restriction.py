"""Row-restricted views of a frozen graph's propagation structure.

The serving hot path answers "recompute layer ``k`` for these *miss* nodes"
many thousands of times per second.  Re-materialising an induced subgraph per
flush (``graph.subgraph`` + fresh operator normalisation) pays CSR slicing,
feature copies and two sparse matmuls of pure overhead before any model work
runs.  A :class:`Restriction` instead *slices rows* out of the frozen graph's
CSR structure once per flush and remaps the column ids into the batch-local
index space — the "compile the aggregation operator once, reuse sliced views"
strategy of Alves et al. (PAPERS.md).

Plans are built fresh per flush and never memoised across flushes: the
embedding cache answers a node after its first miss, so on warm traffic a
miss set practically never recurs and a memoised plan would only pin memory.

Exactness: a restriction is only a valid stand-in for full-graph inference
when every neighbour of every requested row is present in ``cols``.  The
serving recursion guarantees that by construction (layer ``k``'s miss set is
expanded by exactly one hop to form layer ``k-1``'s needed set), and
:func:`_remap_columns` verifies it, so a violation raises instead of silently
corrupting a prediction.

All node ids here are ids *of the frozen graph* (shard-local ids when the
graph is a shard's induced subgraph); translating global ids is the caller's
job.  Row sets are assumed sorted and duplicate-free, which is what the
serving recursion produces.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .graph import Graph

__all__ = ["Restriction", "slice_csr_rows"]


def _row_slices(
    indptr: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(new_indptr, edge_index)`` selecting the CSR entries of ``rows``.

    ``edge_index`` gathers the selected entries out of the parent ``data`` /
    ``indices`` arrays in row order; ``new_indptr`` delimits them per row.
    One vectorised pass, no Python-level loop over rows.
    """
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    new_indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=new_indptr[1:])
    total = int(new_indptr[-1])
    edge_index = np.repeat(starts - new_indptr[:-1], lengths) + np.arange(total, dtype=np.int64)
    return new_indptr, edge_index


def _remap_columns(cols: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Positions of ``values`` inside the sorted id set ``cols`` (checked)."""
    positions = np.searchsorted(cols, values)
    if len(values):
        clipped = np.minimum(positions, len(cols) - 1)
        missing = cols[clipped] != values
        if np.any(missing):
            raise ValueError(
                f"restriction columns are missing neighbours "
                f"{np.unique(values[missing]).tolist()[:8]}..."
            )
    return positions


def slice_csr_rows(matrix: sp.csr_matrix, rows: np.ndarray, cols: np.ndarray) -> sp.csr_matrix:
    """``matrix[rows][:, cols]`` assuming every selected entry's column ∈ ``cols``.

    Unlike scipy's general two-stage fancy indexing this never touches rows
    outside ``rows`` and performs no column search beyond one
    ``np.searchsorted`` — the restriction invariant (all neighbours present)
    turns submatrix extraction into a pure gather.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    indptr, edge_index = _row_slices(np.asarray(matrix.indptr, dtype=np.int64), rows)
    positions = _remap_columns(cols, matrix.indices[edge_index])
    return sp.csr_matrix(
        (matrix.data[edge_index], positions, indptr), shape=(len(rows), len(cols))
    )


class Restriction:
    """The receptive-field slice one micro-batch needs from a frozen graph.

    Built from the *miss rows* of one layer: ``cols`` is the sorted union of
    the rows and their full (true, unsampled) neighbourhood, i.e. exactly the
    node set whose previous-layer representations the layer consumes.  The
    sliced CSR structure and any sliced propagation operators are memoised on
    the instance, so a layer's aggregation and a later bookkeeping step share
    one gather.

    Two degenerate shapes short-circuit instead of slicing:

    * an **empty** row set builds nothing and :meth:`operator` returns an
      empty matrix without ever touching (or normalising) a graph operator;
    * the **full** row set (every node of the graph) aliases the graph's own
      CSR arrays and :meth:`operator` returns the memoised full-graph
      operator as-is — no slice, no column remap.

    Attributes
    ----------
    rows:
        Sorted unique node ids whose outputs are requested.
    cols:
        Sorted node ids the computation reads (``rows`` ∪ neighbours).
    indptr, col_positions:
        CSR of the rows' neighbour lists with neighbours given as positions
        into ``cols`` (edge order identical to the parent graph's, which is
        what keeps segment reductions bitwise-equal to full-graph inference).
    row_positions:
        Each row's own position inside ``cols``.
    """

    def __init__(self, graph: Graph, rows: np.ndarray) -> None:
        rows = np.asarray(rows, dtype=np.int64)
        self.graph = graph
        self.rows = rows
        self._operators: dict = {}
        self._edge_rows: Optional[np.ndarray] = None
        num_nodes = graph.num_nodes
        self._full = len(rows) == num_nodes and (
            num_nodes == 0 or bool(np.array_equal(rows, np.arange(num_nodes, dtype=np.int64)))
        )
        if self._full:
            # Full-shard miss set: the restriction *is* the graph — alias its
            # CSR arrays (positions into cols == node ids) and skip the
            # union/searchsorted entirely.
            self.indptr = graph.indptr
            self.cols = rows
            self.col_positions = graph.indices
            self.row_positions = rows
        else:
            self.indptr, edge_index = _row_slices(graph.indptr, rows)
            neighbors = graph.indices[edge_index]
            self.cols = np.union1d(rows, neighbors)
            self.col_positions = _remap_columns(self.cols, neighbors)
            self.row_positions = _remap_columns(self.cols, rows)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_cols(self) -> int:
        return len(self.cols)

    @property
    def num_edges(self) -> int:
        return len(self.col_positions)

    def row_degrees(self) -> np.ndarray:
        """True (full-graph) degree of every requested row."""
        return np.diff(self.indptr)

    def edge_rows(self) -> np.ndarray:
        """Row ordinal (0..num_rows-1) of every sliced edge, in edge order.

        The restricted counterpart of :func:`repro.models.base.edge_destinations`.
        """
        if self._edge_rows is None:
            self._edge_rows = np.repeat(
                np.arange(self.num_rows, dtype=np.int64), self.row_degrees()
            )
        return self._edge_rows

    def operator(self, kind: str = "random_walk", add_self_loops: bool = False) -> sp.csr_matrix:
        """Rows of the graph's memoised propagation operator, columns remapped.

        The returned ``(num_rows, num_cols)`` CSR carries the *frozen* shard
        operator's normalisation (computed once at server build), so a
        restricted SpMM reproduces ``operator @ h`` for the requested rows
        bitwise — the per-row data slice and its order are untouched.  Empty
        plans return an empty matrix without building any operator; full-graph
        plans return the memoised full operator itself.
        """
        key = (kind, add_self_loops)
        if key in self._operators:
            return self._operators[key]
        if self.num_rows == 0:
            operator = sp.csr_matrix((0, self.num_cols), dtype=np.float64)
        elif self._full:
            operator = self.graph.propagation_operator(kind, add_self_loops=add_self_loops)
        else:
            operator = self.graph.restricted_operator(
                self.rows, self.cols, kind=kind, add_self_loops=add_self_loops
            )
        self._operators[key] = operator
        return operator
