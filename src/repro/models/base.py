"""Shared infrastructure for the four GNN variants of Table I.

Every model is a stack of :class:`GNNLayer` objects operating on sampled
mini-batches (:class:`repro.graph.sampling.MiniBatch`).  A layer receives the
previous layer's node representations and a :class:`SampledBlock` describing
which rows are the targets and which rows are their sampled neighbours, and
produces the targets' new representations — the Aggregate / Combine pattern
of Equations (1)–(2) in the paper.

Layers create their weight matrices through a
:class:`repro.compression.CompressionConfig`, so a single flag switches the
whole model between dense and block-circulant weights, and between
compressing the aggregation phase, the combination phase, or both
(the Section V ablation).
"""

from __future__ import annotations

import contextlib
import os
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Dict, List, Optional, Tuple, Type, Union

import numpy as np
import scipy.sparse as sp

from ..compression.compress import CompressionConfig
from ..graph.graph import Graph
from ..graph.sampling import MiniBatch, SampledBlock
from ..nn.dropout import Dropout
from ..nn.linear import ROW_TILE, row_tiled_matmul
from ..nn.module import Module
from ..tensor.tensor import Tensor

__all__ = [
    "GNNLayer",
    "GNNModel",
    "register_model",
    "create_model",
    "available_models",
    "apply_linear",
    "combine_rows",
    "segment_reduce",
    "parallel_segment_reduce",
    "parallel_spmm",
    "weighted_segment_sum",
    "edge_destinations",
    "stage_scope",
]


def stage_scope(timer, name: str):
    """``timer.stage(name)`` when a stage timer is supplied, else a no-op scope.

    Keeps the layers free of any dependency on the serving package: a timer
    is whatever exposes ``stage(name) -> context manager``.  The serving
    :class:`~repro.serving.StageTimer` returns a *cached* scope per stage
    name (and, when telemetry is on, mirrors each exit into a labelled
    latency histogram), so entering a scope here allocates nothing on the
    hot path.
    """
    return timer.stage(name) if timer is not None else contextlib.nullcontext()


def apply_linear(layer: Module, x: Tensor) -> Tensor:
    """Apply a (possibly block-circulant) linear layer to an N-D tensor.

    The circulant kernel operates on ``(batch, features)`` inputs, so inputs
    with extra leading dimensions (e.g. ``(num_dst, fanout, features)``
    neighbour tensors) are flattened and restored around the call.
    """
    if x.ndim <= 2:
        return layer(x)
    leading = x.shape[:-1]
    flat = x.reshape(int(np.prod(leading)), x.shape[-1])
    out = layer(flat)
    return out.reshape(*leading, out.shape[-1])


def segment_reduce(
    values: Union[np.ndarray, Callable[..., None]],
    indptr: np.ndarray,
    ufunc: np.ufunc,
    row_values: Optional[np.ndarray] = None,
    value_shape: Tuple[int, ...] = (),
):
    """Reduce per-edge values into per-node rows along CSR segments.

    Segment ``i`` spans edges ``indptr[i]:indptr[i + 1]``.  ``values`` is
    either an ``(num_edges, ...)`` array in CSR edge order or a callable
    ``values(edges, out)`` that writes the values of the edge ids ``edges``
    into ``out``, a ``(len(edges),) + value_shape`` scratch array owned by
    the sweep — the callable form lets a layer produce its per-edge operand
    only for the edges being folded in, so no ``(num_edges, features)``
    array is ever built.  ``row_values`` (callables only) is a per-row
    operand, one entry per CSR row: the callable is then called as
    ``values(edges, out, rows, work)``, where ``rows[i]`` is the
    ``row_values`` entry of the row that owns ``edges[i]`` and ``work`` is
    a second scratch of ``out``'s shape.  Returns ``(out, nonempty)`` where
    ``out`` is ``(num_nodes, ...)`` and ``nonempty`` marks nodes with at
    least one edge — empty segments are left as zeros and must be filled by
    the caller (the models mirror the sampler's self-loop fallback for
    isolated nodes).

    Order: every segment is combined sequentially in CSR edge order,
    ``ufunc(...ufunc(ufunc(v[s], v[s+1]), v[s+2])..., v[e-1])``, so a row's
    result depends only on its own edges — never on which other rows are
    reduced alongside it (served rows equal full-graph rows bitwise).

    Cost: the non-empty rows are sorted by degree, longest first, and the
    sweep runs ``max_degree - 1`` vectorised steps; step ``k`` folds the
    ``k``-th edge of every row that still has one into a contiguous prefix of
    the accumulator, so each edge is gathered exactly once.  A step
    allocates nothing of the feature width: the accumulator, the message
    scratch and (with ``row_values``) the sorted row operand and ``work``
    are allocated once per sweep, and every step writes into their
    prefixes.  Array operands are read with ``np.take(..., out=,
    mode="wrap")``: the default ``mode="raise"`` buffers the gather and took
    2.7x as long as plain fancy indexing; the edge ids are in range, so
    ``"wrap"`` changes no value.  The row operand is gathered once, in sweep
    order, so step ``k`` reads it as the contiguous prefix of the rows still
    active instead of gathering it once per edge.
    """
    return _segment_reduce(values, indptr, ufunc, row_values, value_shape, cores=1)


def _segment_reduce(values, indptr, ufunc, row_values, value_shape, cores: int):
    """:func:`segment_reduce` on ``cores`` row slabs (:func:`_edge_slabs`),
    each folded by :func:`_fold_segments` into its rows of one output."""
    indptr = np.asarray(indptr)
    if not callable(values):
        values = np.asarray(values, dtype=np.float64)  # the scratch is float64
    shape = tuple(value_shape) if callable(values) else values.shape[1:]
    out = np.zeros((len(indptr) - 1,) + shape, dtype=np.float64)

    def fold(lo: int, hi: int) -> None:
        rows = None if row_values is None else row_values[lo:hi]
        _fold_segments(values, indptr[lo:hi + 1], ufunc, rows, out[lo:hi])

    if cores <= 1:
        fold(0, len(indptr) - 1)
    else:
        _run_slabs(fold, _edge_slabs(indptr, cores), cores)
    return out, np.diff(indptr) > 0


def _fold_segments(values, indptr: np.ndarray, ufunc: np.ufunc, row_values, out: np.ndarray) -> None:
    """The degree-sorted sweep of :func:`segment_reduce` over ``indptr``'s rows.

    Writes the fold of every non-empty row ``i`` into ``out[i]`` and leaves
    the other rows alone.  Edge ids are ``indptr``'s own, so a slice
    ``indptr[lo:hi + 1]`` folds rows ``lo:hi`` with the caller's edge ids;
    ``row_values`` then holds rows ``lo:hi``'s operand.  Every scratch array
    is allocated here, once per call, so concurrent slabs and callers never
    share one.
    """
    lengths = np.diff(indptr)
    rows = np.flatnonzero(lengths)
    if not len(rows):
        return
    order = rows[np.argsort(-lengths[rows], kind="stable")]
    sorted_lengths = lengths[order]
    starts = indptr[:-1][order].astype(np.intp)
    # active[k - 1]: how many rows have a k-th edge (lengths sorted descending).
    active = np.searchsorted(-sorted_lengths, -np.arange(1, sorted_lengths[0]), side="left")
    acc = np.empty((len(order),) + out.shape[1:])
    message = np.empty_like(acc)
    edges = np.empty(len(order), dtype=np.intp)
    if not callable(values):
        def fill(ids, into):
            np.take(values, ids, axis=0, out=into, mode="wrap")
    elif row_values is None:
        fill = values
    else:
        own = np.take(row_values, order, axis=0)
        work = np.empty_like(acc)

        def fill(ids, into):
            values(ids, into, own[:len(ids)], work[:len(ids)])

    fill(starts, acc)
    for k, count in enumerate(active.tolist(), start=1):
        np.add(starts[:count], k, out=edges[:count])
        fill(edges[:count], message[:count])
        ufunc(acc[:count], message[:count], out=acc[:count])
    out[order] = acc


def _core_count() -> int:
    """CPUs this process may run on (its affinity mask, not the host's count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


#: ``(pid, workers, pool)`` of the slab pool; rebuilt in a forked child,
#: whose copy of the parent's pool has no threads behind it.
_slab_pool: Optional[Tuple[int, int, ThreadPoolExecutor]] = None


def _slab_executor(workers: int) -> ThreadPoolExecutor:
    # No lock (a forked child could inherit it held): two racing callers may
    # each build a pool, and the one dropped runs its queued slabs before its
    # threads exit on collection.
    global _slab_pool
    current = _slab_pool
    if current is None or current[:2] != (os.getpid(), workers):
        pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="segment-slab")
        current = _slab_pool = (os.getpid(), workers, pool)
    return current[2]


def _edge_slabs(indptr: np.ndarray, cores: int) -> List[Tuple[int, int]]:
    """Cut ``indptr``'s rows into ``cores`` slabs of equal edge count.

    The cuts are ``searchsorted`` on ``indptr`` (GNNIE's load balancing by
    edge count).  Returns the ``(lo, hi)`` row ranges that hold edges: a hub
    row wider than one share leaves some slabs empty, and those are dropped.
    """
    first, last = int(indptr[0]), int(indptr[-1])
    shares = first + (last - first) * np.arange(1, cores) // cores
    bounds = [0, *np.searchsorted(indptr, shares).tolist(), len(indptr) - 1]
    return [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if indptr[hi] > indptr[lo]]


def _run_slabs(work: Callable[[int, int], None], slabs: List[Tuple[int, int]], cores: int) -> None:
    """Run ``work(lo, hi)`` on every slab: the first on the calling thread,
    the others on the module-level pool of ``cores - 1`` threads.

    Returns once every slab has finished, and re-raises the first error.
    The pool's tasks never wait on one another, so concurrent callers cannot
    deadlock it.
    """
    futures = [_slab_executor(cores - 1).submit(work, lo, hi) for lo, hi in slabs[1:]]
    try:
        for lo, hi in slabs[:1]:
            work(lo, hi)
    finally:
        wait(futures)  # never return while a slab still writes into the output
    for future in futures:
        future.result()


def parallel_segment_reduce(
    values: Union[np.ndarray, Callable[..., None]],
    indptr: np.ndarray,
    ufunc: np.ufunc,
    row_values: Optional[np.ndarray] = None,
    value_shape: Tuple[int, ...] = (),
):
    """:func:`segment_reduce` with the rows cut into slabs, one per core.

    Same arguments, result and bits as :func:`segment_reduce`: every row
    folds only its own edges, so where the rows are cut cannot change a row.
    The ``k`` slabs (``k`` = CPUs in this process's affinity mask) hold equal
    edge counts (:func:`_edge_slabs`).  The calling thread folds the first
    slab and a module-level pool of ``k - 1`` threads the others; every slab
    writes its rows into one preallocated output.  Each slab allocates its
    own scratch once (its rows' accumulator and message, and with
    ``row_values`` its rows' slice of the operand and ``work``), so slabs
    and concurrent callers share none.  With one core it is plain
    :func:`segment_reduce` and no pool is built.  The pool is built lazily
    and rebuilt in a forked child.

    Threads pay only where the fold spends its time in numpy calls that
    release the GIL, so the callers are chosen by measurement
    (``benchmarks/bench_kernels.py::test_segment_reduce_ledger``: ``rd1``,
    128 features, 2-vCPU Intel Xeon VM; every slabbed result
    ``np.array_equal`` to the serial one):

    - G-GCN's gated sum (``GGCNLayer.forward_full``) runs two gathers, a
      multiply, an add and a ``divide`` on every step: 2 slabs take it from
      106 to 53 ms.
    - GS-Pool's max sweep (``GraphSAGEPoolLayer.forward_full``) is a
      ``take`` plus ``maximum`` per step: 33 to 16 ms.  Gathering into the
      sweep's scratch instead of a fresh ``take`` per step did not make it
      faster, and may have cost a little: at the ledger's position, after
      the G-GCN passes, 24 alternating process pairs read 32.8 ms with a
      fresh ``take`` against 33.5 ms into the scratch serially (median
      best of five; the scratch form won 8 of 24, median pair +0.8 ms) and
      15.9 against 16.6 ms on 2 slabs (won 10 of 24, median pair
      +0.05 ms).  The two loops tie when they alternate in one process
      (26.9 against 27.1 ms, median of 60).
    - GAT's softmax max folds one scalar per edge in under a millisecond;
      on slabs it took 0.8 to 4.0 ms, so it stays serial.  GAT's
      attention-weighted sum and GCN's propagation are CSR SpMMs and run on
      slabs through :func:`parallel_spmm`.
    - Cutting a slab further into row blocks whose scratch fits the L2
      cache sped the serial G-GCN sum up (100-117 to 85-95 ms at 512-row
      blocks) but not 2 slabs (62-69 against 62-72 ms; 73-78 ms at 256
      rows): more, shorter numpy calls hand the GIL between the threads
      more often.  The slabs stay whole.
    - ``forward_restricted`` (serving) keeps its reductions serial: a
      served restriction holds tens to a few hundred rows, and at those
      sizes the slab hand-off costs more than the second core saves (see
      :func:`parallel_spmm`).  What serving does slab is the restricted
      combination's GEMM (:func:`combine_rows`), from
      :data:`SLAB_MIN_ROWS` rows up.
    """
    return _segment_reduce(values, indptr, ufunc, row_values, value_shape, _core_count())


#: Rows per product inside a :func:`parallel_spmm` slab.  Each product's
#: result is a temporary copied into the output, so whole-slab products
#: would hold a second copy of the output at the peak (+20 MB on ``pb``).
_SPMM_CHUNK_ROWS = 512


def parallel_spmm(matrix: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """``matrix @ x`` for a CSR ``matrix``, with the rows cut into slabs, one per core.

    Same result and bits as ``matrix @ x``: scipy folds every row from
    ``0.0`` in its own CSR order, so a row does not depend on which rows
    share its product.  The slabs are :func:`_edge_slabs`' equal-edge cuts
    of ``matrix.indptr``, run on the same pool as
    :func:`parallel_segment_reduce`.  Each slab multiplies CSR views of its
    rows (no copy of the entries), ``_SPMM_CHUNK_ROWS`` rows at a time, into
    one preallocated output.  Rows in no slab have no entries and stay zero,
    as in ``matrix @ x``.  With one core it is plain ``matrix @ x``.

    scipy's CSR product releases the GIL, so two slabs pay on a 2-vCPU host
    for feature-wide operands (``rd1``'s GCN operator, AMD EPYC VM: 3.3 to
    1.8 ms at 128 features, 1.6 to 0.9 ms at 64).  The callers are GCN's
    propagation ``D̂^{-1}(A + I) @ h`` (``GCNLayer.forward_full``) and GAT's
    attention-weighted sum of neighbour projections
    (``GATHead.forward_full``).  A one-column product got slower on slabs
    (0.06 to 0.11 ms), so GAT's softmax denominator stays a serial
    :func:`weighted_segment_sum`.

    The served restricted SpMM stays serial too, by measurement: on
    restrictions of an ``rd2`` shard at 128 features (one BLAS thread,
    2-vCPU Intel Xeon VM, ``benchmarks/bench_kernels.py::test_restricted_combination_ledger``)
    a 64-row plan (4 889 nnz) took 0.52-0.57 ms serially and 0.60-0.71 ms on
    slabs, a 16-row plan (1 198 nnz) 0.09-0.10 against 0.41-0.48 ms.  The
    served path slabs the restricted combination instead
    (:func:`combine_rows`).
    """
    cores = _core_count()
    if cores <= 1:
        return matrix @ x
    indptr, num_cols = matrix.indptr, matrix.shape[1]
    out = np.zeros((matrix.shape[0],) + x.shape[1:], dtype=np.result_type(matrix.dtype, x.dtype))

    def multiply(lo: int, hi: int) -> None:
        for first in range(lo, hi, _SPMM_CHUNK_ROWS):
            last = min(first + _SPMM_CHUNK_ROWS, hi)
            start, stop = indptr[first], indptr[last]
            rows = sp.csr_matrix(
                (matrix.data[start:stop], matrix.indices[start:stop], indptr[first:last + 1] - start),
                shape=(last - first, num_cols),
            )
            out[first:last] = rows @ x

    _run_slabs(multiply, _edge_slabs(indptr, cores), cores)
    return out


#: Rows at or above which :func:`combine_rows` cuts its GEMM into slabs, one
#: per core.  On the ``serve_cold`` configuration (rd2, GCN, hidden 128,
#: ``n = 8``) a window's two large layer-1 calls have ~2.8k and ~1.2k rows
#: and every other call 1-340 rows; the layer-1 calls run ``128 -> 128``
#: and then the output layer's ``128 -> 41`` projection (it combines
#: first), the output layer's own calls have no GEMM.  Fused ``128 -> 128``,
#: one core against two slabs (one BLAS thread, 2-vCPU Intel Xeon VM, best
#: of 5 in three runs of
#: ``benchmarks/bench_kernels.py::test_restricted_combination_ledger``):
#: 256 rows 346-405 against 348-397 us (a tie: the pool hand-off costs what
#: the second core saves), 512 rows 712-821 against 596-635 us, 1 169 rows
#: 1.8-2.1 against 1.1-1.3 ms, 2 837 rows 5.0-6.2 against 2.7-5.9 ms.  The
#: projection adds 0.2-0.5 ms at 2 920 rows.
SLAB_MIN_ROWS = 512


def _tile_slabs(rows: int, cores: int) -> List[Tuple[int, int]]:
    """Cut ``rows`` into at most ``cores`` slabs of whole :data:`ROW_TILE`
    tiles (only the last slab may end on a partial tile)."""
    tiles = -(-rows // ROW_TILE)
    step = -(-tiles // cores) * ROW_TILE
    return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def combine_rows(
    linear: Module,
    source: np.ndarray,
    index: Optional[np.ndarray] = None,
    activation: bool = True,
    out=None,
    project: Optional[Module] = None,
) -> np.ndarray:
    """The restricted combination, fused: ``ReLU(x @ W^T + b)`` for the rows
    ``x = source[index]`` (``source`` itself without ``index``), where
    ``linear`` is a :class:`~repro.nn.Linear` or a
    :class:`~repro.nn.BlockCirculantLinear`.

    ``project``, when given, is the next layer's input projection (a
    combine-first GCN layer's ``fc``): every row is then multiplied by its
    ``W'^T`` too, without bias, and the products are what is scattered and
    returned — the rows the next layer reads.

    ``out`` is the serving worker's ``(buffer, positions)`` assembly pair or
    ``None``; the computed rows are returned either way.  Bits equal
    ``apply_linear`` → bias → ReLU (→ ``row_tiled_matmul`` by ``W'^T``) →
    scatter on the whole row set.

    Both layers run their GEMM on :data:`ROW_TILE`-row blocks of the cached
    ``W^T`` (``linear.dense_transposed()``), so a row's bits do not depend
    on the others.  Every slab of rows gathers its own ``source`` rows,
    multiplies them into its slice of the result (:func:`row_tiled_matmul`
    with ``out=``; with ``project``, into a slab-sized scratch that the
    second GEMM reads), adds the bias and applies ReLU in place, and
    scatters the slice into ``buffer`` — one pass, no whole-set
    temporaries.  From :data:`SLAB_MIN_ROWS` rows up the slabs are cut at
    multiples of ``ROW_TILE``, one per core, and run on :func:`_run_slabs`'
    pool (numpy's gathers and BLAS release the GIL); below it, or with one
    core, the one slab runs inline.
    """
    rows = len(source) if index is None else len(index)
    buffer, positions = out if out is not None else (None, None)
    matrix = linear.dense_transposed()
    bias = linear.bias.data if linear.bias is not None else None
    projection = project.dense_transposed() if project is not None else None
    result = np.empty((rows, (matrix if projection is None else projection).shape[1]))

    def combine(lo: int, hi: int) -> None:
        block = result[lo:hi] if projection is None else np.empty((hi - lo, matrix.shape[1]))
        row_tiled_matmul(source[lo:hi] if index is None else source[index[lo:hi]], matrix, out=block)
        if bias is not None:
            np.add(block, bias, out=block)
        if activation:
            np.maximum(block, 0.0, out=block)
        if projection is not None:
            block = row_tiled_matmul(block, projection, out=result[lo:hi])
        if buffer is not None:
            buffer[positions[lo:hi]] = block

    cores = _core_count() if rows >= SLAB_MIN_ROWS else 1
    if cores <= 1:
        combine(0, rows)
    else:
        _run_slabs(combine, _tile_slabs(rows, cores), cores)
    return result


def weighted_segment_sum(
    weights: np.ndarray, indices: np.ndarray, indptr: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """``out[i] = sum_e weights[e] * x[indices[e]]`` over CSR segment ``i``.

    The per-edge weighted sum as one CSR SpMM, ``A @ x`` with
    ``A = csr(weights, indices, indptr)`` of shape ``(len(indptr) - 1,
    len(x))``.  scipy folds each row from ``0.0`` in CSR edge order, and
    ``0.0 + w * x`` is exact, so every row equals the sequential
    :func:`segment_reduce` fold of ``weights[e] * x[indices[e]]`` (only a
    row whose every product is ``-0.0`` differs, in the sign of its zero) —
    a row's result depends on its own edges alone, so served rows equal
    full-graph rows bitwise.  Empty rows come out as zeros.
    """
    matrix = sp.csr_matrix((weights, indices, indptr), shape=(len(indptr) - 1, len(x)))
    return matrix @ x


def edge_destinations(graph: Graph) -> np.ndarray:
    """Centre node ``v`` of every CSR edge ``(v, u)``, in edge order.

    The ``(num_edges,)`` companion of ``graph.indices`` (which holds the
    neighbours ``u``): per-edge gathers in the full-graph layers index
    node-level arrays with it inside a :func:`segment_reduce`.  Memoised on
    the graph (alongside its propagation operators) and returned read-only,
    since the adjacency structure is immutable.
    """
    key = ("edge_destinations",)
    if key not in graph._operator_cache:
        dst = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
        dst.flags.writeable = False
        graph._operator_cache[key] = dst
    return graph._operator_cache[key]


class GNNLayer(Module):
    """One Aggregate + Combine layer.

    Sub-classes implement :meth:`forward` taking the previous representations
    ``h`` (``(num_src, in_features)``) and the :class:`SampledBlock` of this
    layer, and returning ``(num_dst, out_features)``.

    Sub-classes additionally implement :meth:`forward_full`, the *full-graph*
    variant used by layer-wise inference: it takes the representations of
    **all** nodes and the :class:`~repro.graph.graph.Graph`, aggregates over
    every true neighbour (CSR SpMM / segment reductions instead of sampled
    fancy indexing) and returns all nodes' new representations.

    :meth:`forward_restricted` is the serving fast-path variant: it computes
    the same outputs as :meth:`forward_full`, but only for the rows of a
    :class:`~repro.graph.restriction.Restriction`, reading inputs for the
    restriction's column set — no induced subgraph, no re-normalisation, no
    work on rows nobody asked for.  :meth:`prepare_full` warms the frozen
    graph's operator caches so the first request does not pay normalisation.
    """

    #: Does this layer's aggregation read any parameter?  Sub-classes whose
    #: aggregator is weight-free (GCN) set ``False`` and implement
    #: :meth:`aggregate_restricted` / :meth:`combine_restricted`: the serving
    #: worker then memoises the first layer's aggregated rows across weight
    #: versions.  Defaults to ``True`` so a layer that forgets to declare it
    #: gets no memo, never a stale one.
    has_aggregation_weights: bool = True

    @property
    def input_projection(self) -> Optional[Module]:
        """The linear this layer's inference multiplies its input rows by
        before aggregating (a combine-first GCN layer's ``fc``), or
        ``None``.  When set, the serving store keeps the previous layer's
        rows already multiplied by it (:meth:`GNNModel.stored_rows`)."""
        return None

    def __init__(self, in_features: int, out_features: int, compression: CompressionConfig) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.compression = compression

    def forward(self, h: Tensor, block: SampledBlock) -> Tensor:  # pragma: no cover - interface
        raise NotImplementedError

    def forward_full(self, h: Tensor, graph: Graph) -> Tensor:  # pragma: no cover - interface
        raise NotImplementedError

    def forward_restricted(
        self, h: Tensor, restriction, timer=None, out=None, project=None
    ) -> Tensor:  # pragma: no cover
        """Outputs of :meth:`forward_full` for ``restriction.rows`` only.

        ``h`` holds the previous representations of ``restriction.cols`` (in
        column order); a layer with an :attr:`input_projection` also takes
        them already multiplied by it (told apart by their width,
        ``out_features``).  ``project``, when given, is the next layer's
        :attr:`input_projection`: the layer returns (and scatters) its rows
        multiplied by it.  ``timer``, when given, is a
        :class:`~repro.serving.timing.StageTimer`-like object whose
        ``stage("aggregation")`` / ``stage("combination")`` context managers
        attribute the layer's time to the serving breakdown.  ``out``, when
        given, is the serving worker's ``(buffer, positions)`` assembly pair
        — the buffer's other rows hold pre-gathered cache/halo hits and the
        layer scatters its computed rows into ``buffer[positions]`` before
        returning them (:func:`combine_rows` does both).
        """
        raise NotImplementedError

    def aggregate_restricted(self, h: Tensor, restriction, timer=None) -> np.ndarray:  # pragma: no cover
        """The aggregation half of :meth:`forward_restricted`, as raw rows.

        Only weight-free aggregators (``has_aggregation_weights = False``)
        implement it: its rows depend on ``h`` and the frozen graph alone.
        """
        raise NotImplementedError

    def combine_restricted(
        self, aggregated: np.ndarray, timer=None, out=None, index=None, project=None
    ) -> Tensor:  # pragma: no cover
        """The combination half of :meth:`forward_restricted` over the rows
        ``aggregated[index]`` (every row of ``aggregated`` without
        ``index``): the serving worker passes its first-layer memo and the
        wanted rows, so no gathered copy of the memo is made first.
        ``project`` is as in :meth:`forward_restricted`."""
        raise NotImplementedError

    def prepare_full(self, graph: Graph) -> None:
        """Precompute the frozen-graph operators this layer's inference uses.

        Called once per shard at server build ("shard operator plans"), so no
        flush ever pays adjacency normalisation.  Default: nothing to warm.
        """


class GNNModel(Module):
    """A K-layer GNN for node classification on sampled mini-batches."""

    def __init__(
        self,
        layers: List[GNNLayer],
        dropout: float = 0.0,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        if not layers:
            raise ValueError("a GNN model needs at least one layer")
        self.layers = layers
        for index, layer in enumerate(layers):
            setattr(self, f"layer_{index}", layer)
        self.dropout = Dropout(dropout, seed=seed) if dropout > 0 else None

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def stored_projection(self, k: int) -> Optional[Module]:
        """The linear the stored layer-``k`` rows are multiplied by: layer
        ``k + 1``'s :attr:`~GNNLayer.input_projection` (``None`` for the
        output layer ``k = K``)."""
        return self.layers[k].input_projection if k < self.num_layers else None

    def stored_width(self, k: int) -> int:
        """Width of the layer-``k`` rows (``1 <= k <= K``) the serving
        stores hold: what layer ``k + 1`` reads."""
        if self.stored_projection(k) is not None:
            return self.layers[k].out_features
        return self.layers[k - 1].out_features

    def stored_rows(self, k: int, h: np.ndarray) -> np.ndarray:
        """The rows the serving stores hold for the layer-``k`` outputs
        ``h``: ``h`` itself, or ``h`` times the next layer's
        ``W^T`` (:meth:`stored_projection`) — bitwise what serving computes."""
        projection = self.stored_projection(k)
        return h if projection is None else row_tiled_matmul(h, projection.dense_transposed())

    def forward(self, batch: MiniBatch, features: Optional[np.ndarray] = None, graph: Optional[Graph] = None) -> Tensor:
        """Compute logits for the batch's seed nodes.

        ``features`` may be passed directly (raw features of
        ``batch.input_nodes()``); otherwise they are gathered from ``graph``.
        """
        if len(batch.blocks) != len(self.layers):
            raise ValueError(
                f"mini-batch has {len(batch.blocks)} blocks but the model has {len(self.layers)} layers"
            )
        if features is None:
            if graph is None:
                raise ValueError("either features or graph must be provided")
            features = batch.input_features(graph)
        h = Tensor(np.asarray(features, dtype=np.float64))
        for index, (layer, block) in enumerate(zip(self.layers, batch.blocks)):
            if self.dropout is not None and index > 0:
                h = self.dropout(h)
            h = layer(h, block)
        return h

    def predict(self, batch: MiniBatch, graph: Graph) -> np.ndarray:
        """Arg-max class predictions for the batch's seed nodes (no autograd)."""
        from ..tensor.tensor import no_grad

        with no_grad():
            logits = self.forward(batch, graph=graph)
        return logits.data.argmax(axis=-1)

    def full_forward(self, graph: Graph, features: Optional[np.ndarray] = None) -> Tensor:
        """Full-graph layer-wise inference: logits for **every** node.

        Instead of building one sampled computation tree per seed batch — which
        recomputes shared neighbourhood representations over and over — each
        layer propagates all node representations at once through the true
        adjacency, so every intermediate representation is computed exactly
        once (the spectral-domain-reuse strategy of CirCNN / the
        caching-oriented inference engines surveyed in PAPERS.md).

        Inference-only: runs without autograd and skips dropout.  Returns a
        ``(num_nodes, num_classes)`` logits tensor.
        """
        from ..tensor.tensor import no_grad

        data = graph.features if features is None else features
        h = Tensor(np.asarray(data, dtype=np.float64))
        if h.shape[0] != graph.num_nodes:
            raise ValueError(
                f"features have {h.shape[0]} rows but the graph has {graph.num_nodes} nodes"
            )
        with no_grad():
            for layer in self.layers:
                h = layer.forward_full(h, graph)
        return h

    def predict_full(self, graph: Graph) -> np.ndarray:
        """Arg-max class predictions for all nodes via :meth:`full_forward`."""
        return self.full_forward(graph).data.argmax(axis=-1)


# ---------------------------------------------------------------------------
# Model registry
# ---------------------------------------------------------------------------

_MODEL_REGISTRY: Dict[str, Type["GNNModel"]] = {}

#: Canonical names used throughout the paper's tables and figures.
MODEL_ALIASES = {
    "gcn": "gcn",
    "gs-pool": "gs_pool",
    "gspool": "gs_pool",
    "gs_pool": "gs_pool",
    "graphsage": "gs_pool",
    "g-gcn": "ggcn",
    "ggcn": "ggcn",
    "gat": "gat",
}


def register_model(name: str):
    """Class decorator registering a GNN model under ``name``."""

    def decorator(cls: Type[GNNModel]) -> Type[GNNModel]:
        _MODEL_REGISTRY[name] = cls
        return cls

    return decorator


def available_models() -> List[str]:
    """Names of all registered GNN variants."""
    return sorted(_MODEL_REGISTRY)


def create_model(
    name: str,
    in_features: int,
    hidden_features: int,
    num_classes: int,
    num_layers: int = 2,
    compression: Optional[CompressionConfig] = None,
    dropout: float = 0.0,
    seed: Optional[int] = None,
    **kwargs,
) -> GNNModel:
    """Build one of the paper's GNN variants by name.

    ``name`` accepts the spellings used in the paper ("GCN", "GS-Pool",
    "G-GCN", "GAT") case-insensitively.
    """
    key = MODEL_ALIASES.get(name.lower())
    if key is None or key not in _MODEL_REGISTRY:
        raise KeyError(f"unknown model '{name}'; known: GCN, GS-Pool, G-GCN, GAT")
    config = compression if compression is not None else CompressionConfig(block_size=1)
    cls = _MODEL_REGISTRY[key]
    return cls(
        in_features=in_features,
        hidden_features=hidden_features,
        num_classes=num_classes,
        num_layers=num_layers,
        compression=config,
        dropout=dropout,
        seed=seed,
        **kwargs,
    )
