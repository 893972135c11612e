"""Tests for the edge-wise aggregation kernels of ``repro.models.base``.

``segment_reduce`` is the degree-sorted segment sweep; ``weighted_segment_sum``
is the per-edge weighted sum as a CSR SpMM.

The kernel's contract is an order, not just a value: every CSR segment is
combined sequentially in edge order.  A pure-Python loop that does exactly
that is the oracle, and ``np.add`` results must equal it bit for bit — which
is what lets served rows equal full-graph rows bitwise, whatever other rows a
restriction reduces alongside them.  The SpMM keeps the same per-row order,
folding ``w * x`` from ``0.0``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.models.base import segment_reduce, weighted_segment_sum


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

    from_callable, nonempty_callable = segment_reduce(lambda edges: values[edges], indptr, ufunc)
    assert np.array_equal(from_callable, out)
    assert np.array_equal(nonempty_callable, nonempty)


def test_all_empty_segments_return_zeros_of_the_trailing_shape():
    indptr = np.zeros(5, dtype=np.int64)
    values = np.empty((0, 3))
    for operand in (values, lambda edges: values[edges]):
        out, nonempty = segment_reduce(operand, indptr, np.add)
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
        lambda edges: x[indices[edges]] * weights[edges, None], indptr, np.add
    )
    assert not nonempty.all()
    assert np.array_equal(weighted_segment_sum(weights, indices, indptr, x), swept)
