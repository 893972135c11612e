"""Tests for the edge-wise aggregation kernels of ``repro.models.base``.

``segment_reduce`` is the degree-sorted segment sweep; ``weighted_segment_sum``
is the per-edge weighted sum as a CSR SpMM; ``parallel_segment_reduce`` and
``parallel_spmm`` run the sweep and a CSR SpMM on edge-balanced row slabs,
one per core.

The kernel's contract is an order, not just a value: every CSR segment is
combined sequentially in edge order.  A pure-Python loop that does exactly
that is the oracle, and ``np.add`` results must equal it bit for bit — which
is what lets served rows equal full-graph rows bitwise, whatever other rows a
restriction reduces alongside them.  The SpMM keeps the same per-row order,
folding ``w * x`` from ``0.0``.
"""

from __future__ import annotations

import sys
import threading
from unittest import mock

import numpy as np
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.models import base
from repro.models.base import (
    parallel_segment_reduce,
    parallel_spmm,
    segment_reduce,
    weighted_segment_sum,
)


def sequential_oracle(values: np.ndarray, indptr: np.ndarray, ufunc: np.ufunc):
    """Fold each segment left to right in edge order, one edge at a time."""
    lengths = np.diff(indptr)
    out = np.zeros((len(lengths),) + values.shape[1:])
    for row, (start, stop) in enumerate(zip(indptr[:-1], indptr[1:])):
        if start == stop:
            continue
        acc = values[start].copy()
        for edge in range(start + 1, stop):
            acc = ufunc(acc, values[edge])
        out[row] = acc
    return out, lengths > 0


def _filling(values):
    """``values`` as a callable operand: ``fill(edges, out)`` writes ``values[edges]`` into ``out``."""

    def fill(edges, out):
        out[...] = values[edges]

    return fill


def _shifting(values):
    """A row-operand callable: edge ``e`` of row ``r`` gives ``values[e] + rows[r]``,
    gathered into the ``work`` scratch first."""

    def fill(edges, out, rows, work):
        work[...] = values[edges]
        np.add(work, rows, out=out)

    return fill


def _row_operand(indptr, trailing):
    """A per-row operand for the segments of ``indptr`` and its edge-order
    expansion (each edge gets its own row's entry)."""
    lengths = np.diff(indptr)
    rows = np.random.default_rng(len(lengths)).standard_normal((len(lengths),) + trailing)
    return rows, np.repeat(rows, lengths, axis=0)


@st.composite
def csr_values(draw):
    """Random CSR segments (empty rows included) and per-edge values."""
    lengths = draw(st.lists(st.integers(0, 7), min_size=0, max_size=12))
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    trailing = draw(st.sampled_from([(), (1,), (draw(st.integers(2, 5)),)]))
    values = draw(
        arrays(
            np.float64,
            (int(indptr[-1]),) + trailing,
            elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
        )
    )
    return values, indptr


@settings(max_examples=150, deadline=None)
@given(csr_values(), st.sampled_from([np.add, np.maximum]))
def test_matches_sequential_oracle_bitwise(case, ufunc):
    values, indptr = case
    before = values.copy()
    out, nonempty = segment_reduce(values, indptr, ufunc)
    expected, expected_nonempty = sequential_oracle(values, indptr, ufunc)
    assert out.shape == expected.shape
    assert np.array_equal(out, expected)
    assert np.array_equal(nonempty, expected_nonempty)
    assert np.array_equal(values, before)  # accumulation never writes into the input

    trailing = values.shape[1:]
    from_callable, nonempty_callable = segment_reduce(_filling(values), indptr, ufunc, None, trailing)
    assert np.array_equal(from_callable, out)
    assert np.array_equal(nonempty_callable, nonempty)

    rows, per_edge = _row_operand(indptr, trailing)
    from_rows, nonempty_rows = segment_reduce(_shifting(values), indptr, ufunc, rows, trailing)
    expected_rows, _ = sequential_oracle(values + per_edge, indptr, ufunc)
    assert np.array_equal(from_rows, expected_rows)
    assert np.array_equal(nonempty_rows, nonempty)


def test_all_empty_segments_return_zeros_of_the_trailing_shape():
    indptr = np.zeros(5, dtype=np.int64)
    values = np.empty((0, 3))
    for operand in (values, _filling(values)):
        out, nonempty = segment_reduce(operand, indptr, np.add, None, (3,))
        assert out.shape == (4, 3) and not out.any()
        assert nonempty.shape == (4,) and not nonempty.any()


def test_hub_row_among_degree_one_rows():
    """One row of degree 3 000 between 200 degree-1 rows: the sweep runs
    3 000 steps with a single active row for most of them."""
    lengths = np.ones(201, dtype=np.int64)
    lengths[100] = 3000
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    values = np.random.default_rng(0).standard_normal((int(indptr[-1]), 4))
    for ufunc in (np.add, np.maximum):
        out, nonempty = segment_reduce(values, indptr, ufunc)
        expected, _ = sequential_oracle(values, indptr, ufunc)
        assert nonempty.all()
        assert np.array_equal(out, expected)
    integers = np.arange(len(values)).reshape(-1, 1)  # folded as float64, like the oracle
    expected, _ = sequential_oracle(integers, indptr, np.add)
    assert np.array_equal(segment_reduce(integers, indptr, np.add)[0], expected)


def _case(lengths, trailing=(3,)):
    """CSR segments of the given lengths with distinct per-edge values."""
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    values = np.random.default_rng(len(lengths)).standard_normal((int(indptr[-1]),) + trailing)
    return values, indptr


@settings(max_examples=150, deadline=None)
@given(csr_values(), st.sampled_from([np.add, np.maximum]))
# More slabs (7) than rows.
@example(_case([2, 1]), np.add)
# Slabs whose rows are all empty: at 7 slabs the cuts fall 0|0|3|3|3|7|7|9,
# leaving slabs of isolated rows only (rows 7–8, and empty row ranges).
@example(_case([0, 0, 3, 0, 0, 0, 3, 0, 0]), np.add)
# A hub row wider than one slab's edge share, at 2 and at 7 slabs.
@example(_case([1, 20, 1, 0, 1]), np.maximum)
# Slabs longer than the SpMM's 512-row chunks.
@example(_case([3, 0, 1] * 400, trailing=(2,)), np.add)
def test_slabs_equal_the_serial_sweep_bitwise(case, ufunc):
    """Rows fold only their own edges, so any slab count gives the same bits.

    The slabbed SpMM multiplies the CSR matrix of the same segments (edge
    ``e`` picks row ``e`` of ``values``, weighted) and must equal ``csr @ x``.
    """
    values, indptr = case
    trailing = values.shape[1:]
    rows, _ = _row_operand(indptr, trailing)
    operands = [(values, None), (_filling(values), None), (_shifting(values), rows)]
    serial = [
        segment_reduce(operand, indptr, ufunc, row_values, trailing) for operand, row_values in operands
    ]
    matrix = sp.csr_matrix(
        (np.linspace(-2.0, 2.0, len(values)), np.arange(len(values)), indptr),
        shape=(len(indptr) - 1, len(values)),
    )
    product = matrix @ values
    for slabs in (1, 2, 7):
        with mock.patch.object(base, "_core_count", return_value=slabs):
            for (operand, row_values), (expected, expected_nonempty) in zip(operands, serial):
                out, nonempty = parallel_segment_reduce(operand, indptr, ufunc, row_values, trailing)
                assert out.shape == expected.shape
                assert np.array_equal(out, expected), slabs
                assert np.array_equal(nonempty, expected_nonempty)
            out = parallel_spmm(matrix, values)
            assert out.shape == product.shape and out.dtype == product.dtype
            assert out.tobytes() == product.tobytes(), slabs


def test_one_core_builds_no_slab_pool():
    values, indptr = _case([3, 0, 4, 1])
    with mock.patch.object(base, "_slab_pool", None), \
            mock.patch.object(base, "_core_count", return_value=1):
        parallel_segment_reduce(values, indptr, np.add)
        assert base._slab_pool is None


def test_concurrent_callers_share_the_slab_pool():
    """More caller threads than cores, each cutting 7 slabs onto the one
    pool, under a short switch interval: every call returns (no pool task
    waits on another) and equals the serial sweep bit for bit.  Every caller
    folds its own operand, half of them with a row operand, so a scratch
    shared between callers or between one caller's slabs mixes them up."""
    values, indptr = _case([5, 0, 40, 3, 1, 0, 9, 2] * 8)
    rows, _ = _row_operand(indptr, (3,))
    operands = [
        (_shifting(values * slot), rows) if slot % 2 else (_filling(values * slot), None)
        for slot in range(1, 9)
    ]
    expected = [
        segment_reduce(operand, indptr, np.add, row_values, (3,))[0] for operand, row_values in operands
    ]
    matches = [0] * 8

    def call(slot):
        operand, row_values = operands[slot]
        for _ in range(25):
            out, _ = parallel_segment_reduce(operand, indptr, np.add, row_values, (3,))
            matches[slot] += np.array_equal(out, expected[slot])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(base, "_core_count", return_value=7):
            threads = [threading.Thread(target=call, args=(slot,)) for slot in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert matches == [25] * 8


def weighted_oracle(weights, indices, indptr, x):
    """Fold ``weights[e] * x[indices[e]]`` from ``0.0`` left to right per segment."""
    out = np.zeros((len(indptr) - 1,) + x.shape[1:])
    for row, (start, stop) in enumerate(zip(indptr[:-1], indptr[1:])):
        acc = np.zeros(x.shape[1:])
        for edge in range(start, stop):
            acc = acc + weights[edge] * x[indices[edge]]
        out[row] = acc
    return out


@st.composite
def weighted_csr(draw):
    """Random CSR segments (empty rows included), edge weights, and the dense operand."""
    lengths = draw(st.lists(st.integers(0, 7), min_size=0, max_size=12))
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    num_edges = int(indptr[-1])
    num_cols = draw(st.integers(1, 9))
    indices = np.asarray(
        draw(st.lists(st.integers(0, num_cols - 1), min_size=num_edges, max_size=num_edges)),
        dtype=np.int64,
    )
    floats = st.floats(-1e6, 1e6, allow_nan=False, width=64)
    weights = draw(arrays(np.float64, (num_edges,), elements=floats))
    trailing = draw(st.sampled_from([(), (1,), (draw(st.integers(2, 5)),)]))
    x = draw(arrays(np.float64, (num_cols,) + trailing, elements=floats))
    return weights, indices, indptr, x


@settings(max_examples=150, deadline=None)
@given(weighted_csr())
def test_weighted_segment_sum_matches_sequential_fold_bitwise(case):
    weights, indices, indptr, x = case
    out = weighted_segment_sum(weights, indices, indptr, x)
    expected = weighted_oracle(weights, indices, indptr, x)
    assert out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()
    assert not out[np.diff(indptr) == 0].any()


def test_weighted_segment_sum_equals_the_segment_sweep():
    """On rows without signed-zero ties the SpMM and the sweep agree bitwise."""
    rng = np.random.default_rng(0)
    lengths = rng.integers(0, 40, size=300)
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    indices = rng.integers(0, 50, size=int(indptr[-1]))
    weights = rng.random(int(indptr[-1]))
    x = rng.standard_normal((50, 6))
    swept, nonempty = segment_reduce(
        _filling(x[indices] * weights[:, None]), indptr, np.add, None, (6,)
    )
    assert not nonempty.all()
    assert np.array_equal(weighted_segment_sum(weights, indices, indptr, x), swept)
