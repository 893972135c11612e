"""Micro-benchmarks of the core kernels (supporting Table III's TCR column).

These time the actual software kernels on this machine: dense mat-vec vs the
FFT-based block-circulant mat-vec at several block sizes, the functional
accelerator datapath, the edge-wise aggregation kernels
(``segment_reduce``, ``weighted_segment_sum``, their core-slab variants),
the serving plan build (``Restriction``) and the serving worker's restricted
combination and SpMM in absolute terms.  They
demonstrate that the measured FLOP reduction follows the theoretical
``n / log2(n)`` trend (wall-clock gains on NumPy are smaller than on
dedicated hardware, which is exactly the gap the CirCore architecture
addresses).
"""

from __future__ import annotations

import functools
import json
import os
import resource
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.special import expit

from repro.compression import (
    BlockCirculantSpec,
    CompressionConfig,
    block_circulant_matmul,
    block_circulant_operation_count,
    dense_operation_count,
    random_block_circulant,
    spectral_weights,
)
from repro.graph import Restriction, load_dataset
from repro.graph.restriction import _row_slices
from repro.hardware import BlockGNNAccelerator, CirCoreConfig
from repro.models import Trainer, TrainingConfig, create_model
from repro.models import base
from repro.models.base import (
    apply_linear,
    combine_rows,
    edge_destinations,
    parallel_segment_reduce,
    parallel_spmm,
    segment_reduce,
    weighted_segment_sum,
)
from repro.models.ggcn import _gated_messages, _gated_sum, _node_gated_messages
from repro.models.graphsage import _gather
from repro.serving.shard import build_shards
from repro.models.trainer import compare_inference_modes
from repro.nn import BlockCirculantLinear
from repro.nn.linear import row_tiled_matmul
from repro.tensor import Tensor, no_grad

DIM = 512
BATCH = 64
#: Block size used by the cached-vs-uncached forward comparison.
CACHE_BLOCK = 64
#: Wall-clock assertions are skipped when BLOCKGNN_STRICT_PERF=0 (set by CI,
#: where shared runners make timing ratios unreliable); the correctness
#: assertions always run.
STRICT_PERF = os.environ.get("BLOCKGNN_STRICT_PERF", "1") != "0"


def _best_of(fn, repeats: int = 5, inner: int = 3) -> float:
    """Minimum wall-clock of ``inner`` calls over ``repeats`` attempts."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return best


@pytest.fixture(scope="module")
def dense_problem():
    rng = np.random.default_rng(0)
    weights = rng.standard_normal((DIM, DIM))
    features = rng.standard_normal((BATCH, DIM))
    return weights, features


def test_dense_matvec_baseline(benchmark, dense_problem):
    weights, features = dense_problem
    result = benchmark(lambda: features @ weights.T)
    assert result.shape == (BATCH, DIM)


@pytest.mark.parametrize("block_size", [16, 64, 128])
def test_block_circulant_matvec(benchmark, dense_problem, block_size):
    _, features = dense_problem
    rng = np.random.default_rng(1)
    spec = BlockCirculantSpec(DIM, DIM, block_size)
    weights = random_block_circulant(spec, rng)
    w_hat = spectral_weights(weights)

    result = benchmark(lambda: block_circulant_matmul(features, weights, spec, spectral=w_hat))
    assert result.shape == (BATCH, DIM)
    # The theoretical FLOP reduction grows with the block size.
    reduction = dense_operation_count(DIM, DIM) / block_circulant_operation_count(spec)
    assert reduction > 1.0


@pytest.mark.parametrize("use_rfft", [False, True], ids=["fft", "rfft"])
def test_block_circulant_matmul_fft_vs_rfft(benchmark, dense_problem, use_rfft):
    """rFFT vs complex FFT with precomputed spectra (pure kernel comparison)."""
    _, features = dense_problem
    rng = np.random.default_rng(1)
    spec = BlockCirculantSpec(DIM, DIM, CACHE_BLOCK)
    weights = random_block_circulant(spec, rng)
    w_hat = spectral_weights(weights, use_rfft=use_rfft)

    result = benchmark(lambda: block_circulant_matmul(features, None, spec, spectral=w_hat))
    assert result.shape == (BATCH, DIM)


def _seed_circulant_forward(x: np.ndarray, weights: np.ndarray, spec: BlockCirculantSpec) -> np.ndarray:
    """The seed repository's ``circulant_linear`` forward, verbatim.

    Complex FFT over all ``n`` bins, ``FFT(W)`` recomputed on every call, and
    an un-optimised einsum — the exact hot path this PR replaces.
    """
    batch, n = x.shape[0], spec.block_size
    padded = x.reshape(batch, spec.q, n)
    x_hat = np.fft.fft(padded, axis=-1)
    w_hat = np.fft.fft(weights, axis=-1)
    out_hat = np.einsum("pqn,bqn->bpn", w_hat, x_hat)
    out = np.real(np.fft.ifft(out_hat, axis=-1)).reshape(batch, spec.padded_out)
    return out[:, : spec.out_features]


def test_circulant_forward_uncached_fft(benchmark, dense_problem):
    """The seed hot path: complex FFT with FFT(W) recomputed on every call."""
    _, features = dense_problem
    rng = np.random.default_rng(1)
    spec = BlockCirculantSpec(DIM, DIM, CACHE_BLOCK)
    weights = random_block_circulant(spec, rng)

    result = benchmark(lambda: _seed_circulant_forward(features, weights, spec))
    assert result.shape == (BATCH, DIM)


def test_circulant_forward_cached_rfft(benchmark, dense_problem):
    """The optimised spectral path: rFFT with the per-version spectral cache."""
    _, features = dense_problem
    rng = np.random.default_rng(1)
    layer = BlockCirculantLinear(DIM, DIM, CACHE_BLOCK, bias=False, rng=rng)
    x = Tensor(features)
    layer.forward_spectral(x)  # warm the (version, W_hat) cache

    result = benchmark(lambda: layer.forward_spectral(x))
    assert result.shape == (BATCH, DIM)


def test_cached_rfft_speedup_over_seed_path(dense_problem, save_result):
    """Acceptance gate: cached-rFFT forward >= 2x the seed uncached complex path."""
    _, features = dense_problem
    rng = np.random.default_rng(1)
    spec = BlockCirculantSpec(DIM, DIM, CACHE_BLOCK)
    layer = BlockCirculantLinear(DIM, DIM, CACHE_BLOCK, bias=False, rng=rng)
    x = Tensor(features)
    layer.forward_spectral(x)  # warm the cache

    uncached = _best_of(lambda: _seed_circulant_forward(features, layer.weight.data, spec))
    cached = _best_of(lambda: layer.forward_spectral(x))
    speedup = uncached / cached
    save_result(
        "kernels_spectral_cache",
        f"BlockCirculantLinear forward, DIM={DIM} BATCH={BATCH} n={CACHE_BLOCK}\n"
        f"  uncached complex-FFT (seed) : {uncached * 1e3:.3f} ms\n"
        f"  cached rFFT (this PR)       : {cached * 1e3:.3f} ms\n"
        f"  speedup                     : {speedup:.1f}x",
        speedup=speedup,
        uncached_ms=uncached * 1e3,
        cached_ms=cached * 1e3,
    )
    if STRICT_PERF:
        assert speedup >= 2.0, f"cached rFFT path only {speedup:.2f}x faster than the seed path"


#: The crossover ledger's grid: square F x F layers at every block size.
CROSSOVER_FEATURES = (128, 256, 512, 1024)
CROSSOVER_BLOCKS = (4, 8, 16, 32, 64, 128)
CROSSOVER_ROWS = 1024


def _crossover_grid() -> dict:
    """``{"F<f>.n<n>": (rfft_us, dense_us)}`` for one ``CROSSOVER_ROWS``-row
    forward, both kernels on their cached weights and without autograd."""
    rng = np.random.default_rng(0)
    cells = {}
    with no_grad():
        for features in CROSSOVER_FEATURES:
            x = Tensor(rng.standard_normal((CROSSOVER_ROWS, features)))
            for block in CROSSOVER_BLOCKS:
                layer = BlockCirculantLinear(features, features, block, bias=False, rng=rng)
                np.testing.assert_allclose(layer(x).data, layer.forward_spectral(x).data, atol=1e-10)
                cells[f"F{features}.n{block}"] = (
                    _best_of(lambda: layer.forward_spectral(x)) * 1e6,
                    _best_of(lambda: layer(x)) * 1e6,
                )
    return cells


def _child_grid(*args: str) -> dict:
    """Run one of this file's grids (see ``__main__``) in a fresh child
    process with one BLAS thread, like the end-to-end benchmark's workers,
    and return its JSON result."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    child = subprocess.run(
        [sys.executable, __file__, *args], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(child.stdout)


def test_dense_rfft_crossover_ledger(save_result):
    """Where the cached dense expansion stops beating the cached rFFT kernel.

    Times the layer's rFFT kernel on its cached spectrum
    (``forward_spectral``) against its forward, the dense GEMM on the cached
    ``W^T``, over ``CROSSOVER_FEATURES`` x ``CROSSOVER_BLOCKS`` at
    ``CROSSOVER_ROWS`` rows.  The grid runs in a child process with one BLAS
    thread, like the end-to-end benchmark's workers.  A report only: it
    asserts nothing about the timings.
    """
    cells = _child_grid("crossover")
    lines = [
        f"cached rFFT vs cached dense W^T, {CROSSOVER_ROWS} rows, one BLAS thread; "
        "ratio = rFFT / dense (> 1: dense faster)",
        "F     " + "".join(f"{f'n={block}':>9}" for block in CROSSOVER_BLOCKS),
    ]
    metrics = {}
    for features in CROSSOVER_FEATURES:
        row = []
        for block in CROSSOVER_BLOCKS:
            key = f"F{features}.n{block}"
            rfft_us, dense_us = cells[key]
            row.append(f"{rfft_us / dense_us:9.2f}")
            metrics.update({f"{key}.rfft_us": rfft_us, f"{key}.dense_us": dense_us})
        lines.append(f"{features:<6}" + "".join(row))
    save_result("kernels_crossover", "\n".join(lines), **metrics)


def test_full_graph_vs_sampled_inference(save_result):
    """Full-graph layer-wise inference: faster than sampled and within 1% accuracy.

    The sampled baseline runs at "full fanout" — fanouts larger than the
    graph's maximum degree, so every neighbourhood is covered; the residual
    accuracy difference is with-replacement sampling noise.
    """
    graph = load_dataset("cora", scale=0.3, seed=0, num_features=64)
    fanouts = (30, 30)
    assert np.diff(graph.indptr).max() <= max(fanouts)
    model = create_model(
        "GCN",
        in_features=graph.num_features,
        hidden_features=64,
        num_classes=graph.num_classes,
        compression=CompressionConfig(block_size=8),
        seed=0,
    )
    Trainer(model, graph, TrainingConfig(epochs=4, fanouts=(10, 5), seed=0)).fit()

    comparison = compare_inference_modes(model, graph, fanouts, seed=0, repeats=3)
    save_result(
        "kernels_full_vs_sampled",
        f"GCN n=8 on {graph.summary()}\n"
        f"  sampled (fanouts {fanouts})  : acc {comparison.sampled_accuracy:.4f} "
        f"in {comparison.sampled_seconds * 1e3:.1f} ms\n"
        f"  full-graph layer-wise        : acc {comparison.full_accuracy:.4f} "
        f"in {comparison.full_seconds * 1e3:.1f} ms\n"
        f"  speedup {comparison.speedup:.1f}x, "
        f"accuracy difference {comparison.accuracy_difference:.4f}",
        speedup=comparison.speedup,
        sampled_ms=comparison.sampled_seconds * 1e3,
        full_ms=comparison.full_seconds * 1e3,
        accuracy_difference=comparison.accuracy_difference,
    )
    assert comparison.accuracy_difference <= 0.01
    if STRICT_PERF:
        assert comparison.full_seconds < comparison.sampled_seconds


def _expit_messages(gate_n, features, src):
    """The G-GCN message in its former ``expit(gate_n[u] + gate_s[v]) * h_u``
    form (``gate_s`` as the row operand) — the reference the exp-form gate is
    timed and checked against."""

    def messages(edges, out, gate_s, work):
        neighbours = src[edges]
        np.take(gate_n, neighbours, axis=0, out=out, mode="wrap")
        out += gate_s
        expit(out, out=out)
        out *= np.take(features, neighbours, axis=0, out=work, mode="wrap")

    return messages


def _per_pass(fn):
    """``(best wall-clock ms, median minor page faults)`` of ``fn`` over five
    calls; the faults are this process's ``ru_minflt`` deltas."""
    seconds, faults = [], []
    for _ in range(5):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        fn()
        seconds.append(time.perf_counter() - start)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return min(seconds) * 1e3, float(np.median(faults))


#: The model sweeps of the segment-reduce ledger, timed serially and on slabs.
SWEEPS = ("ggcn", "sage", "gat")


def _sweep_grid() -> dict:
    """``{"timings": {"<sweep>_<mode>": ms}, "faults": {"<sweep>_<mode>":
    minor faults}}`` of one pass of each model sweep, serially and on core
    slabs (bitwise equal), at the ``rd1`` shape with 128 features."""
    graph = load_dataset("reddit", scale=0.01, seed=0, num_features=128)
    indptr, src = graph.indptr, graph.indices
    rng = np.random.default_rng(0)
    gate_n, gate_s, features = (rng.standard_normal((graph.num_nodes, 128)) for _ in range(3))
    projected = np.maximum(features, 0.0)
    logits = rng.standard_normal(graph.num_edges)
    sweeps = {
        "ggcn": lambda reduce: _gated_sum(-gate_n, -gate_s, features, src, indptr, reduce),
        "sage": lambda reduce: reduce(_gather(projected, src), indptr, np.maximum, None, (128,)),
        "gat": lambda reduce: reduce(logits, indptr, np.maximum),
    }
    timings, faults = {}, {}
    for name in SWEEPS:
        serial = functools.partial(sweeps[name], segment_reduce)
        slabs = functools.partial(sweeps[name], parallel_segment_reduce)
        assert np.array_equal(serial()[0], slabs()[0]), name
        for mode, fn in (("serial", serial), ("slabs", slabs)):
            timings[f"{name}_{mode}"], faults[f"{name}_{mode}"] = _per_pass(fn)
    return {"timings": timings, "faults": faults}


def test_segment_reduce_ledger(save_result):
    """Absolute timings of the edge-wise aggregation kernels at the ``rd1`` shape.

    ``segment_reduce`` over the synthetic reddit x0.01 graph (the end-to-end
    ``offline_full`` workload's graph: 140 192 edges) with 128 features per
    edge, for the max (GS-Pool) and the sum reductions.  Each result is
    checked against a left-to-right fold of every CSR segment — bitwise,
    since the kernel promises exactly that order.  Two model-level rows
    follow: G-GCN's gated-message sweep in the former ``expit`` form, the
    per-edge exp form and the per-node exp form (``h_u / (1 + exp_n[u] *
    exp_s[v])``, what ``GGCNLayer`` runs), each checked per edge against the
    exp form at ``rtol=1e-14``; and GAT's attention-weighted neighbour sum as
    a ``segment_reduce`` sweep vs the ``weighted_segment_sum`` SpMM (bitwise).
    Then three model sweeps run serially and on one row slab per core
    (``parallel_segment_reduce``, bitwise equal): G-GCN's gated sum as the
    layer runs it (``_gated_sum``, ``exp_s`` as the row operand), GS-Pool's
    max over projected neighbours (gathered into the sweep's scratch) and
    GAT's scalar softmax max, with the minor page faults of one pass of
    each (:func:`_sweep_grid`, in a fresh child process: the counts depend
    on the allocator's state, which the sweeps above leave behind here).
    The last rows run GCN's
    propagation SpMM ``D̂^{-1}(A + I) @ x`` serially and on slabs
    (``parallel_spmm``, bitwise equal) for F = 128 and F = 64.  They record
    why G-GCN's and GS-Pool's sweeps and the feature-wide SpMMs run on slabs
    and GAT's softmax max does not; no timing is asserted.
    """
    graph = load_dataset("reddit", scale=0.01, seed=0, num_features=128)
    indptr = graph.indptr
    rng = np.random.default_rng(0)
    values = rng.standard_normal((graph.num_edges, 128))
    max_degree = int(np.diff(indptr).max())
    timings = {}
    for name, ufunc in (("add", np.add), ("max", np.maximum)):
        out, nonempty = segment_reduce(values, indptr, ufunc)
        for row in np.flatnonzero(nonempty):
            expected = functools.reduce(ufunc, values[indptr[row]: indptr[row + 1]])
            assert np.array_equal(out[row], expected), (name, row)
        assert not out[~nonempty].any()
        timings[name] = _best_of(lambda: segment_reduce(values, indptr, ufunc)) * 1e3

    src, dst = graph.indices, edge_destinations(graph)
    gate_n, gate_s, features = (rng.standard_normal((graph.num_nodes, 128)) for _ in range(3))
    # Each form with its row operand: the row's own gate half.
    messages = {
        "expit": (_expit_messages(gate_n, features, src), gate_s),
        "exp": (_gated_messages(-gate_n, features, src), -gate_s),
        "node": (_node_gated_messages(np.exp(-gate_n), features, src), np.exp(-gate_s)),
    }

    def per_edge(name, edges):
        fill, rows = messages[name]
        out, work = np.empty((len(edges), 128)), np.empty((len(edges), 128))
        fill(edges, out, rows[dst[edges]], work)
        return out

    # Per edge, not per row sum: the sums cancel, so a relative bound on them
    # would measure the cancellation rather than the gate.
    for edges in np.array_split(np.arange(graph.num_edges), 16):
        for name in ("expit", "node"):
            np.testing.assert_allclose(
                per_edge(name, edges), per_edge("exp", edges), rtol=1e-14, atol=0
            )
    for name, (fill, rows) in messages.items():
        gated = functools.partial(segment_reduce, fill, indptr, np.add, rows, (128,))
        timings[f"gate_{name}"] = _best_of(gated, repeats=3, inner=1) * 1e3

    attention = rng.random(graph.num_edges)
    z = features

    def weighted_messages(edges, out):
        np.multiply(z[src[edges]], attention[edges, None], out=out)

    weighted = {
        "sweep": lambda: segment_reduce(weighted_messages, indptr, np.add, None, (128,))[0],
        "spmm": lambda: weighted_segment_sum(attention, src, indptr, z),
    }
    assert np.array_equal(weighted["spmm"](), weighted["sweep"]())
    for name, fn in weighted.items():
        timings[f"weighted_{name}"] = _best_of(fn, repeats=3, inner=1) * 1e3

    sweeps = _child_grid("sweeps")
    timings.update(sweeps["timings"])
    faults = sweeps["faults"]

    operator = graph.random_walk_adjacency(add_self_loops=True)
    for width in (128, 64):
        x = np.ascontiguousarray(features[:, :width])
        serial = functools.partial(operator.__matmul__, x)
        slabs = functools.partial(parallel_spmm, operator, x)
        assert serial().tobytes() == slabs().tobytes(), width
        timings[f"spmm{width}_serial"] = _best_of(serial, repeats=5, inner=3) * 1e3
        timings[f"spmm{width}_slabs"] = _best_of(slabs, repeats=5, inner=3) * 1e3
    cores = base._core_count()

    gathered_gb = values.nbytes / 1e9
    save_result(
        "kernels_segment_reduce",
        f"segment_reduce on reddit x0.01: N={graph.num_nodes} E={graph.num_edges} F=128, "
        f"{max_degree - 1} sweep steps (max degree {max_degree})\n"
        f"  np.add     : {timings['add']:.2f} ms ({gathered_gb / timings['add'] * 1e3:.1f} GB/s)\n"
        f"  np.maximum : {timings['max']:.2f} ms ({gathered_gb / timings['max'] * 1e3:.1f} GB/s)\n"
        f"G-GCN gated messages (sweep incl. gate): expit form {timings['gate_expit']:.2f} ms, "
        f"exp form {timings['gate_exp']:.2f} ms, per-node exp form {timings['gate_node']:.2f} ms\n"
        f"GAT attention-weighted sum: segment_reduce sweep {timings['weighted_sweep']:.2f} ms, "
        f"weighted_segment_sum SpMM {timings['weighted_spmm']:.2f} ms\n"
        f"G-GCN gated sum (_gated_sum, exp_s as row operand): serial {timings['ggcn_serial']:.2f} ms, "
        f"{cores} core slabs {timings['ggcn_slabs']:.2f} ms\n"
        f"GS-Pool max sweep (gathered into the scratch): serial {timings['sage_serial']:.2f} ms, "
        f"{cores} core slabs {timings['sage_slabs']:.2f} ms\n"
        f"minor page faults per pass, serial / {cores} slabs: G-GCN {faults['ggcn_serial']:.0f} / "
        f"{faults['ggcn_slabs']:.0f}, GS-Pool {faults['sage_serial']:.0f} / {faults['sage_slabs']:.0f}\n"
        f"serial vs {cores} core slabs: GAT softmax max {timings['gat_serial']:.2f} -> "
        f"{timings['gat_slabs']:.2f} ms\n"
        f"serial vs {cores} core slabs: GCN SpMM F=128 {timings['spmm128_serial']:.2f} -> "
        f"{timings['spmm128_slabs']:.2f} ms, F=64 {timings['spmm64_serial']:.2f} -> "
        f"{timings['spmm64_slabs']:.2f} ms",
        add_ms=timings["add"],
        max_ms=timings["max"],
        gate_expit_ms=timings["gate_expit"],
        gate_exp_ms=timings["gate_exp"],
        gate_node_ms=timings["gate_node"],
        weighted_sweep_ms=timings["weighted_sweep"],
        weighted_spmm_ms=timings["weighted_spmm"],
        **{f"{name}_{mode}_ms": timings[f"{name}_{mode}"]
           for name in [*SWEEPS, "spmm128", "spmm64"] for mode in ("serial", "slabs")},
        **{f"{name}_minflt": count for name, count in faults.items()},
        slab_cores=cores,
        num_edges=graph.num_edges,
        max_degree=max_degree,
    )


def _union_searchsorted_plan(graph, rows):
    """The former ``Restriction`` build plus its GCN operator slice:
    ``np.union1d`` for the columns, ``np.searchsorted`` for every remap."""
    indptr, edges = _row_slices(graph.indptr, rows)
    neighbors = graph.indices[edges]
    cols = np.union1d(rows, neighbors)
    matrix = graph.propagation_operator("random_walk", add_self_loops=True)
    op_indptr, op_edges = _row_slices(matrix.indptr, rows)
    return {
        "cols": cols,
        "indptr": indptr,
        "col_positions": np.searchsorted(cols, neighbors),
        "row_positions": np.searchsorted(cols, rows),
        "operator.data": matrix.data[op_edges],
        "operator.indices": np.searchsorted(cols, matrix.indices[op_edges]),
        "operator.indptr": op_indptr,
    }


def _position_map_plan(graph, rows):
    restriction = Restriction(graph, rows)
    operator = restriction.operator("random_walk", add_self_loops=True)
    return {
        "cols": restriction.cols,
        "indptr": restriction.indptr,
        "col_positions": restriction.col_positions,
        "row_positions": restriction.row_positions,
        "operator.data": operator.data,
        "operator.indices": operator.indices,
        "operator.indptr": operator.indptr,
    }


def test_restriction_build_ledger(save_result):
    """Plan build + GCN operator slice at the ``rd2`` cold-serving shape.

    The synthetic reddit x0.02 graph (the ``serve_cold`` workload's graph)
    with a 64-row miss set drawn like ``graph.restriction_build_us``, and the
    layer-1-sized set those 64 rows read (their column set, ~3k rows).  The
    former ``union1d`` + ``searchsorted`` construction is timed beside the
    position-map ``Restriction``, and every array they return must be equal.
    """
    graph = load_dataset("reddit", scale=0.02, seed=0, num_features=8)
    rng = np.random.default_rng(0)
    seeds = np.sort(rng.choice(graph.num_nodes, 64, replace=False))
    row_sets = {"rows64": seeds, "layer1": Restriction(graph, seeds).cols}
    timings = {}
    for label, rows in row_sets.items():
        actual = _position_map_plan(graph, rows)
        for name, expected in _union_searchsorted_plan(graph, rows).items():
            assert np.array_equal(actual[name], expected), (label, name)
        for name, build in (("union_searchsorted", _union_searchsorted_plan),
                            ("position_map", _position_map_plan)):
            timings[f"{label}_{name}"] = _best_of(lambda: build(graph, rows)) * 1e6
    save_result(
        "kernels_restriction_build",
        f"Restriction build + random_walk(self-loops) slice on reddit x0.02: "
        f"N={graph.num_nodes} E={graph.num_edges}\n"
        + "\n".join(
            f"  {label} ({len(rows)} rows): union1d+searchsorted "
            f"{timings[f'{label}_union_searchsorted']:.0f} us, position map "
            f"{timings[f'{label}_position_map']:.0f} us"
            for label, rows in row_sets.items()
        ),
        **{f"{key}_us": value for key, value in timings.items()},
        layer1_rows=len(row_sets["layer1"]),
    )


#: Row counts of the restricted-combination ledger: a ``serve_cold`` window's
#: two large layer-1 calls (2 837 and 1 169 rows) and the slab threshold's
#: neighbourhood.
COMBINATION_ROWS = (2837, 1169, 512, 256)
#: Miss-set sizes of the restricted-SpMM ledger.
SPMM_RESTRICTION_ROWS = (16, 64)
#: ``rd2``'s classes: the width of the output layer's combine-first SpMM
#: operand, and of the stored layer-1 rows that feed it.
TOP_WIDTH = 41
#: Rows of a ``serve_cold`` window's large layer-1 call, where the fused
#: combination runs with and without the output layer's projection.
PROJECTED_ROWS = 2920


def _restricted_grid() -> dict:
    """``{"combination.<rows>": (serial_us, fused_us, slabs_us),
    "projected.<cores>": (plain_us, projected_us), "spmm.<rows>": (serial_us,
    slabs_us, nnz, top_us), "cores": cores}`` at the ``serve_cold`` shapes.

    The combination maps memo rows ``128 -> 128`` through a ``n = 8``
    block-circulant layer: *serial* is the path before the fusion (gather
    the memo rows, ``apply_linear``, bias, ReLU, scatter into the assembly
    buffer), *fused* is :func:`combine_rows` on one core and *slabs* on
    every core.  At :data:`PROJECTED_ROWS` rows it runs again with the
    output layer's ``128 -> 41`` projection (``project=``, what the worker
    runs when the output layer combines first), on one core and on slabs.
    The SpMM multiplies restrictions of ``rd2``'s first shard (the layer-1
    aggregation the worker runs for memo misses), serially and with
    :func:`parallel_spmm`, and serially at the output layer's
    :data:`TOP_WIDTH` columns.  Every variant must give the serial bytes.
    """
    rng = np.random.default_rng(0)
    cores = base._core_count()
    cells = {"cores": cores}
    layer = BlockCirculantLinear(128, 128, 8, rng=rng)
    layer.bias.data[...] = rng.standard_normal(128)
    layer.bias.bump_version()
    memo = rng.standard_normal((4659, 128))
    with no_grad():
        for rows in COMBINATION_ROWS:
            wanted = rng.choice(len(memo), rows, replace=False)
            positions = rng.permutation(rows + 64)[:rows]
            buffer = np.zeros((rows + 64, 128))

            def serial():
                result = apply_linear(layer, Tensor(memo[wanted])).relu().data
                buffer[positions] = result
                return result

            def fused():
                return combine_rows(layer, memo, wanted, True, (buffer, positions))

            expected, expected_buffer = serial().tobytes(), buffer.tobytes()
            timings = [_best_of(serial) * 1e6]
            for slab_cores in (1, cores):
                base._core_count = lambda slab_cores=slab_cores: slab_cores
                buffer[...] = 0.0
                assert fused().tobytes() == expected, (rows, slab_cores)
                assert buffer.tobytes() == expected_buffer, (rows, slab_cores)
                timings.append(_best_of(fused) * 1e6)
            base._core_count = lambda: cores
            cells[f"combination.{rows}"] = timings

        top = BlockCirculantLinear(128, TOP_WIDTH, 8, rng=rng)
        wanted = rng.choice(len(memo), PROJECTED_ROWS, replace=False)
        positions = rng.permutation(PROJECTED_ROWS)
        plain_buffer = np.zeros((PROJECTED_ROWS, 128))
        top_buffer = np.zeros((PROJECTED_ROWS, TOP_WIDTH))
        hidden = combine_rows(layer, memo, wanted)
        expected = row_tiled_matmul(hidden, top.dense_transposed()).tobytes()
        plain = functools.partial(combine_rows, layer, memo, wanted, True, (plain_buffer, positions))
        projected = functools.partial(
            combine_rows, layer, memo, wanted, True, (top_buffer, positions), top
        )
        for slab_cores in sorted({1, cores}):
            base._core_count = lambda slab_cores=slab_cores: slab_cores
            assert projected().tobytes() == expected, slab_cores
            assert top_buffer[positions].tobytes() == expected, slab_cores
            cells[f"projected.{slab_cores}"] = [_best_of(plain) * 1e6, _best_of(projected) * 1e6]
        base._core_count = lambda: cores

    graph = load_dataset("reddit", scale=0.02, seed=0, num_features=128)
    shard = build_shards(graph, 2, halo_hops=2, seed=0)[0].graph
    shard.random_walk_adjacency(add_self_loops=True)
    for rows in SPMM_RESTRICTION_ROWS:
        plan = Restriction(shard, np.sort(rng.choice(shard.num_nodes, rows, replace=False)))
        operator = plan.operator("random_walk", add_self_loops=True)
        h = rng.standard_normal((len(plan.cols), 128))
        serial = functools.partial(operator.__matmul__, h)
        slabs = functools.partial(parallel_spmm, operator, h)
        top = functools.partial(operator.__matmul__, np.ascontiguousarray(h[:, :TOP_WIDTH]))
        assert serial().tobytes() == slabs().tobytes(), rows
        cells[f"spmm.{rows}"] = [
            _best_of(serial, inner=10) * 1e6, _best_of(slabs, inner=10) * 1e6, operator.nnz,
            _best_of(top, inner=10) * 1e6,
        ]
    return cells


def test_restricted_combination_ledger(save_result):
    """The serving worker's restricted kernels, serial against core slabs.

    Runs :func:`_restricted_grid` in a child process with one BLAS thread,
    like the end-to-end benchmark's workers.  The combination's three
    variants and the SpMM's two must be byte-equal (the child asserts it);
    the timings are a report only.  The SpMM rows record why
    ``forward_restricted``'s SpMM stays serial: at served restriction sizes
    the slab hand-off costs more than the second core saves.  The
    top-layer rows record what combining first trades: the output layer's
    SpMM at 41 columns instead of 128, for a second GEMM in the layer-1
    combination.
    """
    cells = _child_grid("restricted")
    cores = cells.pop("cores")
    lines = [f"restricted kernels at serve_cold shapes, one BLAS thread, {cores} core slabs"]
    metrics = {"slab_cores": cores}
    for rows in COMBINATION_ROWS:
        serial_us, fused_us, slabs_us = cells[f"combination.{rows}"]
        lines.append(
            f"  combination {rows:>5} x 128 -> 128: serial {serial_us:7.0f} us, fused "
            f"{fused_us:7.0f} us, slabs {slabs_us:7.0f} us"
        )
        metrics.update({f"combination{rows}_{name}_us": value for name, value in
                        zip(("serial", "fused", "slabs"), (serial_us, fused_us, slabs_us))})
    for slab_cores in sorted({1, cores}):
        plain_us, projected_us = cells[f"projected.{slab_cores}"]
        lines.append(
            f"  layer-1 combination {PROJECTED_ROWS} x 128 -> 128 on {slab_cores} core(s): "
            f"{plain_us:7.0f} us, with the 128 -> {TOP_WIDTH} projection {projected_us:7.0f} us"
        )
        metrics.update({f"projected{slab_cores}_plain_us": plain_us,
                        f"projected{slab_cores}_with_projection_us": projected_us})
    for rows in SPMM_RESTRICTION_ROWS:
        serial_us, slabs_us, nnz, top_us = cells[f"spmm.{rows}"]
        lines.append(
            f"  restricted SpMM {rows:>3} rows ({nnz} nnz) x 128: serial {serial_us:6.0f} us, "
            f"parallel_spmm {slabs_us:6.0f} us; x {TOP_WIDTH}: serial {top_us:6.0f} us"
        )
        metrics.update({f"spmm{rows}_serial_us": serial_us, f"spmm{rows}_slabs_us": slabs_us,
                        f"spmm{rows}_nnz": nnz, f"spmm{rows}_top_us": top_us})
    save_result("kernels_restricted", "\n".join(lines), **metrics)


def test_accelerator_functional_datapath(benchmark):
    rng = np.random.default_rng(2)
    layer = BlockCirculantLinear(DIM, DIM, 128, rng=rng)
    accelerator = BlockGNNAccelerator(
        CirCoreConfig(fft_channels=16, ifft_channels=16, systolic_rows=4, systolic_cols=4, block_size=128)
    )
    accelerator.load_layer("fc", layer)
    features = rng.standard_normal((BATCH, DIM))

    result = benchmark(lambda: accelerator.execute_linear("fc", features))
    assert result.shape == (BATCH, DIM)


if __name__ == "__main__":
    # The ledgers' child process (_child_grid).
    grids = {"crossover": _crossover_grid, "restricted": _restricted_grid, "sweeps": _sweep_grid}
    print(json.dumps(grids[sys.argv[1]]()))
