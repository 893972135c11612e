"""Row-restricted views of a frozen graph's propagation structure.

The serving hot path answers "recompute layer ``k`` for these *miss* nodes"
many thousands of times per second.  Re-materialising an induced subgraph per
flush (``graph.subgraph`` + fresh operator normalisation) pays CSR slicing,
feature copies and two sparse matmuls of pure overhead before any model work
runs.  A :class:`Restriction` instead *slices rows* out of the frozen graph's
CSR structure once per flush and remaps the column ids into the batch-local
index space — the "compile the aggregation operator once, reuse sliced views"
strategy of Alves et al. (PAPERS.md).

Both steps are dense scatters and gathers over one graph-sized position map,
with no sort and no binary search: marking the rows and their neighbours in a
boolean mask and reading back its non-zero ids yields the sorted column set,
and ``lookup[cols] = arange(len(cols))`` turns every column remap (the plan's
own neighbour lists and each sliced operator's columns) into ``lookup[ids]``.
The map is allocated per plan, never stored on the shared :class:`Graph`.

Plans are built fresh per flush and never memoised across flushes: the
embedding cache answers a node after its first miss, so on warm traffic a
miss set practically never recurs and a memoised plan would only pin memory.

Exactness: a restriction is only a valid stand-in for full-graph inference
when every neighbour of every requested row is present in ``cols``.  The
serving recursion guarantees that by construction (layer ``k``'s miss set is
expanded by exactly one hop to form layer ``k-1``'s needed set), and
:func:`_positions` verifies every remap — absent ids map to ``-1``, which
numpy would silently wrap to the last column — so a violation raises instead
of corrupting a prediction.

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

__all__ = ["Restriction"]


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


def _positions(lookup: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Positions of ``ids`` inside the plan's columns, read from ``lookup`` (checked)."""
    positions = lookup[ids]
    if len(positions) and positions.min() < 0:
        raise ValueError(
            f"restriction columns are missing neighbours "
            f"{np.unique(ids[positions < 0]).tolist()[:8]}..."
        )
    return positions


class Restriction:
    """The receptive-field slice one micro-batch needs from a frozen graph.

    Built from the *miss rows* of one layer: ``cols`` is the sorted union of
    the rows and their full (true, unsampled) neighbourhood, i.e. exactly the
    node set whose previous-layer representations the layer consumes.  It is
    read off a boolean mask over the graph's nodes, and a ``-1``-filled
    position map over the same nodes (``lookup[cols] = 0..len(cols)-1``)
    remaps the neighbour lists, the rows and every sliced operator's columns
    by one gather each.  The sliced propagation operators are memoised on
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
            # CSR arrays (positions into cols == node ids) and build no map.
            self.indptr = graph.indptr
            self.cols = rows
            self.col_positions = graph.indices
            self.row_positions = rows
        else:
            self.indptr, edge_index = _row_slices(graph.indptr, rows)
            neighbors = graph.indices[edge_index]
            mark = np.zeros(num_nodes, dtype=bool)
            mark[neighbors] = True
            mark[rows] = True
            self.cols = np.flatnonzero(mark)
            self._lookup = np.full(num_nodes, -1, dtype=np.int64)
            self._lookup[self.cols] = np.arange(len(self.cols), dtype=np.int64)
            self.col_positions = _positions(self._lookup, neighbors)
            self.row_positions = _positions(self._lookup, rows)

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
        bitwise — the per-row data slice and its order are untouched.  Every
        selected entry's column must lie in ``cols`` (with self-loops the rows
        themselves always do); a missing one raises.  Empty plans return an
        empty matrix without building any operator; full-graph plans return
        the memoised full operator itself.
        """
        key = (kind, add_self_loops)
        if key in self._operators:
            return self._operators[key]
        if self.num_rows == 0:
            operator = sp.csr_matrix((0, self.num_cols), dtype=np.float64)
        elif self._full:
            operator = self.graph.propagation_operator(kind, add_self_loops=add_self_loops)
        else:
            matrix = self.graph.propagation_operator(kind, add_self_loops=add_self_loops)
            indptr, edge_index = _row_slices(matrix.indptr, self.rows)
            positions = _positions(self._lookup, matrix.indices[edge_index])
            operator = sp.csr_matrix(
                (matrix.data[edge_index], positions, indptr), shape=(self.num_rows, self.num_cols)
            )
        self._operators[key] = operator
        return operator
