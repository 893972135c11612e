"""Graph data structure used throughout the reproduction.

A :class:`Graph` stores an undirected (symmetrised) adjacency in CSR form
plus dense node features, integer labels and train/val/test masks — the same
information the PyG/GraphSAGE datasets in the paper provide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

__all__ = ["Graph"]


@dataclass
class Graph:
    """An attributed graph in CSR form.

    Attributes
    ----------
    indptr, indices:
        CSR row pointers and column indices of the (symmetric) adjacency.
    features:
        ``(num_nodes, num_features)`` dense node features.
    labels:
        ``(num_nodes,)`` integer class labels.
    train_mask, val_mask, test_mask:
        Boolean masks selecting the node splits.
    name:
        Human-readable dataset name (``"cora"``, ``"reddit"``, ...).
    """

    indptr: np.ndarray
    indices: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    name: str = "graph"
    _adjacency: Optional[sp.csr_matrix] = field(default=None, repr=False, compare=False)
    #: memoised propagation operators keyed by (kind, add_self_loops); the
    #: adjacency structure is immutable, so full-graph layer-wise inference
    #: pays the normalisation cost once per graph instead of once per layer.
    _operator_cache: dict = field(default_factory=dict, repr=False, compare=False)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: np.ndarray,
        features: np.ndarray,
        labels: np.ndarray,
        train_mask: Optional[np.ndarray] = None,
        val_mask: Optional[np.ndarray] = None,
        test_mask: Optional[np.ndarray] = None,
        name: str = "graph",
        make_undirected: bool = True,
    ) -> "Graph":
        """Build a graph from an ``(E, 2)`` edge list (symmetrised, dedup'd)."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= num_nodes):
            raise ValueError("edge endpoints out of range")
        src, dst = edges[:, 0], edges[:, 1]
        if make_undirected:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        data = np.ones(len(src), dtype=np.float64)
        adjacency = sp.csr_matrix((data, (src, dst)), shape=(num_nodes, num_nodes))
        adjacency.data[:] = 1.0  # collapse duplicate edges
        adjacency.setdiag(0)
        adjacency.eliminate_zeros()
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if features.shape[0] != num_nodes or labels.shape[0] != num_nodes:
            raise ValueError("features/labels must have one row per node")

        def default_mask() -> np.ndarray:
            return np.zeros(num_nodes, dtype=bool)

        graph = cls(
            indptr=adjacency.indptr.astype(np.int64),
            indices=adjacency.indices.astype(np.int64),
            features=features,
            labels=labels,
            train_mask=train_mask if train_mask is not None else default_mask(),
            val_mask=val_mask if val_mask is not None else default_mask(),
            test_mask=test_mask if test_mask is not None else default_mask(),
            name=name,
        )
        graph._adjacency = adjacency
        return graph

    @classmethod
    def from_networkx(cls, nx_graph, features: np.ndarray, labels: np.ndarray, name: str = "graph") -> "Graph":
        """Build a graph from a ``networkx`` graph (nodes must be 0..N-1)."""
        num_nodes = nx_graph.number_of_nodes()
        edges = np.asarray(list(nx_graph.edges()), dtype=np.int64).reshape(-1, 2)
        return cls.from_edges(num_nodes, edges, features, labels, name=name)

    # -- basic properties --------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges stored (2x the undirected edge count)."""
        return len(self.indices)

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0

    def degrees(self) -> np.ndarray:
        """Out-degree of every node."""
        return np.diff(self.indptr)

    def neighbors(self, node: int) -> np.ndarray:
        """Neighbour ids of ``node``."""
        return self.indices[self.indptr[node]: self.indptr[node + 1]]

    def adjacency(self) -> sp.csr_matrix:
        """The binary adjacency matrix in CSR form."""
        if self._adjacency is None:
            data = np.ones(len(self.indices), dtype=np.float64)
            self._adjacency = sp.csr_matrix(
                (data, self.indices, self.indptr), shape=(self.num_nodes, self.num_nodes)
            )
        return self._adjacency

    # -- GCN-style propagation helpers ---------------------------------------------

    @staticmethod
    def _freeze(matrix: sp.csr_matrix) -> sp.csr_matrix:
        """Mark a cached operator's buffers read-only.

        The memoised operators are shared between callers, so in-place
        mutation (``op.data *= alpha``) would silently corrupt every later
        full-graph inference; freezing turns that into an immediate error.
        Callers that need a mutable operator should ``.copy()`` it.
        """
        matrix.data.flags.writeable = False
        matrix.indices.flags.writeable = False
        matrix.indptr.flags.writeable = False
        return matrix

    def normalized_adjacency(self, add_self_loops: bool = True) -> sp.csr_matrix:
        """Symmetric GCN normalisation ``D^{-1/2} (A + I) D^{-1/2}``.

        Memoised and returned read-only — ``.copy()`` before mutating.
        """
        key = ("normalized", add_self_loops)
        if key not in self._operator_cache:
            adjacency = self.adjacency().copy()
            if add_self_loops:
                adjacency = adjacency + sp.eye(self.num_nodes, format="csr")
            degrees = np.asarray(adjacency.sum(axis=1)).flatten()
            inv_sqrt = np.zeros_like(degrees)
            nonzero = degrees > 0
            inv_sqrt[nonzero] = 1.0 / np.sqrt(degrees[nonzero])
            scaling = sp.diags(inv_sqrt)
            self._operator_cache[key] = self._freeze((scaling @ adjacency @ scaling).tocsr())
        return self._operator_cache[key]

    def random_walk_adjacency(self, add_self_loops: bool = False) -> sp.csr_matrix:
        """Row-normalised adjacency ``D^{-1} A`` (mean aggregation).

        With ``add_self_loops`` the operator becomes ``D̂^{-1} (A + I)`` — the
        mean over the neighbourhood *including the node itself*, which is the
        full-graph limit of the sampled GCN aggregation
        ``(sum_neigh + h_self) / (fanout + 1)``.

        Memoised and returned read-only — ``.copy()`` before mutating.
        """
        key = ("random_walk", add_self_loops)
        if key not in self._operator_cache:
            adjacency = self.adjacency()
            if add_self_loops:
                adjacency = (adjacency + sp.eye(self.num_nodes, format="csr")).tocsr()
            degrees = np.maximum(np.asarray(adjacency.sum(axis=1)).flatten(), 1.0)
            self._operator_cache[key] = self._freeze(
                (sp.diags(1.0 / degrees) @ adjacency).tocsr()
            )
        return self._operator_cache[key]

    def propagation_operator(
        self, kind: str = "random_walk", add_self_loops: bool = False
    ) -> sp.csr_matrix:
        """The memoised full-graph operator of ``kind`` (read-only).

        One dispatch point for :meth:`random_walk_adjacency` /
        :meth:`normalized_adjacency` (``kind`` ∈ ``{"random_walk",
        "normalized"}``) shared by ``prepare_full`` warm-up, restricted
        slicing and full-shard restrictions (which return this operator
        as-is instead of slicing every row).
        """
        if kind == "random_walk":
            return self.random_walk_adjacency(add_self_loops=add_self_loops)
        if kind == "normalized":
            return self.normalized_adjacency(add_self_loops=add_self_loops)
        raise ValueError(f"kind must be 'random_walk' or 'normalized', got {kind!r}")

    # -- restructuring ----------------------------------------------------------------

    def subgraph(self, nodes: Sequence[int], name: Optional[str] = None) -> "Graph":
        """Induced subgraph on ``nodes`` (relabelled to 0..len(nodes)-1)."""
        # np.unique sorts and deduplicates in C while keeping an integer dtype,
        # unlike the Python-level sorted(set(...)) round-trip it replaces.
        nodes = np.unique(np.asarray(nodes, dtype=np.int64))
        adjacency = self.adjacency()[nodes][:, nodes].tocsr()
        sub = Graph(
            indptr=adjacency.indptr.astype(np.int64),
            indices=adjacency.indices.astype(np.int64),
            features=self.features[nodes],
            labels=self.labels[nodes],
            train_mask=self.train_mask[nodes],
            val_mask=self.val_mask[nodes],
            test_mask=self.test_mask[nodes],
            name=name or f"{self.name}-sub",
        )
        sub._adjacency = adjacency
        return sub

    def split_nodes(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Node id arrays of the train / val / test splits."""
        all_nodes = np.arange(self.num_nodes)
        return all_nodes[self.train_mask], all_nodes[self.val_mask], all_nodes[self.test_mask]

    def summary(self) -> str:
        """One-line human readable description (used by examples)."""
        return (
            f"{self.name}: {self.num_nodes} nodes, {self.num_edges // 2} undirected edges, "
            f"{self.num_features} features, {self.num_classes} classes"
        )

    def validate(self) -> None:
        """Raise if internal invariants are violated (used by property tests)."""
        if len(self.indptr) != self.num_nodes + 1:
            raise ValueError("indptr length mismatch")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr endpoints invalid")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices) and (self.indices.min() < 0 or self.indices.max() >= self.num_nodes):
            raise ValueError("indices out of range")
        for mask in (self.train_mask, self.val_mask, self.test_mask):
            if mask.shape != (self.num_nodes,):
                raise ValueError("mask shape mismatch")
        if self.features.shape[0] != self.num_nodes:
            raise ValueError("feature rows must equal num_nodes")
        if self.labels.shape != (self.num_nodes,):
            raise ValueError("labels shape mismatch")
