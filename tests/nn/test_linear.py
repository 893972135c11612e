"""Unit tests for the dense and block-circulant linear layers."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.compression import circulant_linear
from repro.compression.circulant import expand_block_circulant
from repro.nn.linear import ROW_TILE
from repro.tensor import Tensor, gradient_check, no_grad


def _layer(kind, in_features, out_features, block, rng):
    if kind == "dense":
        return nn.Linear(in_features, out_features, rng=rng)
    return nn.BlockCirculantLinear(in_features, out_features, block, rng=rng)


class TestLinear:
    def test_forward_matches_manual(self, rng):
        layer = nn.Linear(5, 3, rng=rng)
        x = rng.standard_normal((7, 5))
        out = layer(Tensor(x))
        assert np.allclose(out.data, x @ layer.weight.data.T + layer.bias.data)

    def test_no_bias(self, rng):
        layer = nn.Linear(4, 2, bias=False, rng=rng)
        assert layer.bias is None
        assert layer(Tensor(rng.standard_normal((1, 4)))).shape == (1, 2)

    def test_gradients_flow_to_weight_and_bias(self, rng):
        layer = nn.Linear(4, 3, rng=rng)
        x = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        layer(x).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
        assert x.grad is not None

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            nn.Linear(0, 3)

    def test_weight_matrix_view(self, rng):
        layer = nn.Linear(4, 3, rng=rng)
        assert layer.weight_matrix().shape == (3, 4)


class TestBlockCirculantLinear:
    @pytest.mark.parametrize("in_features,out_features,block", [(16, 8, 4), (14, 10, 4), (12, 12, 6)])
    def test_forward_matches_expanded_dense(self, rng, in_features, out_features, block):
        layer = nn.BlockCirculantLinear(in_features, out_features, block, rng=rng)
        x = rng.standard_normal((5, in_features))
        out = layer(Tensor(x))
        dense = layer.weight_matrix()
        assert np.allclose(out.data, x @ dense.T + layer.bias.data)

    def test_single_vector_input(self, rng):
        layer = nn.BlockCirculantLinear(8, 6, 4, rng=rng)
        out = layer(Tensor(rng.standard_normal(8)))
        assert out.shape == (6,)

    def test_gradcheck_through_layer(self, rng):
        layer = nn.BlockCirculantLinear(8, 6, 4, rng=rng)
        x = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
        # The second input is the layer's own weight tensor: the lambda ignores
        # the argument but the checker perturbs the shared array in place.
        assert gradient_check(lambda v, _w: layer(v), [x, layer.weight])

    def test_from_dense_preserves_output_when_already_circulant(self, rng):
        circulant = nn.BlockCirculantLinear(8, 8, 4, rng=rng)
        dense = nn.Linear(8, 8, rng=rng)
        dense.weight.data[...] = circulant.weight_matrix()
        dense.bias.data[...] = circulant.bias.data
        converted = nn.BlockCirculantLinear.from_dense(dense, 4)
        x = rng.standard_normal((4, 8))
        assert np.allclose(converted(Tensor(x)).data, circulant(Tensor(x)).data)

    def test_from_dense_is_least_squares_projection(self, rng):
        dense = nn.Linear(8, 8, rng=rng)
        converted = nn.BlockCirculantLinear.from_dense(dense, 4)
        approx = converted.weight_matrix()
        error = np.linalg.norm(dense.weight.data - approx)
        # Perturbing the circulant weights must not reduce the error.
        perturbed = converted.weight.data + 1e-3 * rng.standard_normal(converted.weight.data.shape)
        worse = np.linalg.norm(dense.weight.data - expand_block_circulant(perturbed, converted.spec))
        assert worse >= error

    def test_compression_ratio(self, rng):
        layer = nn.BlockCirculantLinear(128, 128, 16, rng=rng)
        assert layer.compression_ratio() == pytest.approx(16.0)

    def test_parameter_count_reduced(self, rng):
        dense = nn.Linear(64, 64, rng=rng)
        compressed = nn.BlockCirculantLinear(64, 64, 8, rng=rng)
        assert compressed.weight.size * 8 == dense.weight.size

    def test_use_rfft_false_matches_default(self, rng):
        layer = nn.BlockCirculantLinear(14, 10, 4, rng=rng)
        complex_layer = nn.BlockCirculantLinear(14, 10, 4, use_rfft=False, rng=rng)
        complex_layer.load_state_dict(layer.state_dict())
        x = Tensor(rng.standard_normal((5, 14)))
        assert np.allclose(layer(x).data, complex_layer(x).data)
        # use_rfft selects the spectral kernel's transform: rFFT or complex FFT.
        assert np.allclose(layer.forward_spectral(x).data, complex_layer.forward_spectral(x).data)
        assert np.allclose(complex_layer.forward_spectral(x).data, layer(x).data)


def _weight_grad_from_dense(dense_grad: np.ndarray, spec) -> np.ndarray:
    """Adjoint of :func:`expand_block_circulant`: fold a dense ``(N, M)``
    weight gradient back onto the ``(p, q, n)`` defining vectors, using
    ``D[i*n + r, j*n + c] = w[i, j, (r - c) mod n]``."""
    n = spec.block_size
    padded = np.zeros((spec.padded_out, spec.padded_in))
    padded[: spec.out_features, : spec.in_features] = dense_grad
    blocks = padded.reshape(spec.p, n, spec.q, n).transpose(0, 2, 1, 3)
    rows = np.arange(n)
    cols = (rows[None, :] - rows[:, None]) % n  # cols[k, r] = (r - k) mod n
    return blocks[:, :, rows[None, :], cols].sum(axis=-1)


class TestTable3BlockSizes:
    """The kernel invariants at the block sizes Table III trains with."""

    @pytest.mark.parametrize(
        "in_features,out_features,block",
        [(256, 256, 16), (256, 256, 32), (256, 256, 64), (256, 256, 128), (200, 136, 64)],
    )
    def test_forward_gradients_and_rfft_match_dense(self, rng, in_features, out_features, block):
        # The layer's dense kernel and both FFT kernels.
        layer = nn.BlockCirculantLinear(in_features, out_features, block, rng=rng)
        kernels = {
            "layer": layer,
            "rfft": lambda x: circulant_linear(x, layer.weight, layer.spec) + layer.bias,
            "fft": lambda x: circulant_linear(x, layer.weight, layer.spec, use_rfft=False)
            + layer.bias,
        }
        x_data = rng.standard_normal((6, in_features))
        upstream = rng.standard_normal((6, out_features))
        dense = expand_block_circulant(layer.weight.data, layer.spec)
        weight_grad = _weight_grad_from_dense(upstream.T @ x_data, layer.spec)

        for name, kernel in kernels.items():
            layer.zero_grad()
            x = Tensor(x_data, requires_grad=True)
            out = kernel(x)
            assert np.allclose(out.data, x_data @ dense.T + layer.bias.data), name
            (out * Tensor(upstream)).sum().backward()
            assert np.allclose(x.grad, upstream @ dense), name
            assert np.allclose(layer.weight.grad, weight_grad), name


class TestSpectralWeightCache:
    """The per-version FFT(W) cache that makes the compressed path fast."""

    def test_parameter_version_increments_on_optimizer_step(self, rng):
        layer = nn.BlockCirculantLinear(8, 8, 4, rng=rng)
        optimizer = nn.SGD(layer.parameters(), lr=0.1)
        before = layer.weight.version
        layer(Tensor(rng.standard_normal((2, 8)))).sum().backward()
        optimizer.step()
        assert layer.weight.version == before + 1

    def test_cache_hit_returns_same_array(self, rng):
        layer = nn.BlockCirculantLinear(8, 8, 4, rng=rng)
        first = layer.spectral()
        assert layer.spectral() is first
        # Forward passes do not invalidate the cache either.
        layer(Tensor(rng.standard_normal((3, 8))))
        assert layer.spectral() is first

    @pytest.mark.parametrize("optimizer_cls", [nn.SGD, nn.Adam])
    def test_cache_refreshes_after_optimizer_step(self, rng, optimizer_cls):
        layer = nn.BlockCirculantLinear(8, 8, 4, rng=rng)
        optimizer = optimizer_cls(layer.parameters(), lr=0.1)
        stale = layer.spectral().copy()
        layer(Tensor(rng.standard_normal((4, 8)))).sum().backward()
        optimizer.step()
        refreshed = layer.spectral()
        assert not np.allclose(refreshed, stale)
        assert np.allclose(refreshed, np.fft.rfft(layer.weight.data, axis=-1))
        # Both kernels consume the refreshed weights, not the stale ones.
        x = rng.standard_normal((3, 8))
        expected = x @ layer.weight_matrix().T + layer.bias.data
        assert np.allclose(layer(Tensor(x)).data, expected)
        assert np.allclose(layer.forward_spectral(Tensor(x)).data, expected)

    def test_cache_refreshes_after_load_state_dict(self, rng):
        layer = nn.BlockCirculantLinear(8, 6, 4, rng=rng)
        donor = nn.BlockCirculantLinear(8, 6, 4, rng=rng)
        stale = layer.spectral()
        layer.load_state_dict(donor.state_dict())
        assert np.allclose(layer.spectral(), donor.spectral())
        assert layer.spectral() is not stale

    def test_complex_fft_cache_domain(self, rng):
        layer = nn.BlockCirculantLinear(8, 8, 4, use_rfft=False, rng=rng)
        w_hat = layer.spectral()
        assert w_hat.shape[-1] == 4
        assert np.allclose(w_hat, np.fft.fft(layer.weight.data, axis=-1))

    def test_cache_refreshes_after_parameter_replacement(self, rng):
        from repro.nn.module import Parameter

        layer = nn.BlockCirculantLinear(8, 8, 4, bias=False, rng=rng)
        x = rng.standard_normal((2, 8))
        # Warm both caches at (old weight, version 0).
        layer(Tensor(x))
        layer.forward_spectral(Tensor(x))
        layer.weight = Parameter(np.zeros(layer.spec.weight_shape()), name="circulant_weight")
        assert np.allclose(layer(Tensor(x)).data, 0.0)
        assert np.allclose(layer.forward_spectral(Tensor(x)).data, 0.0)

    def test_manual_invalidation(self, rng):
        layer = nn.BlockCirculantLinear(8, 8, 4, rng=rng)
        stale = layer.spectral()
        layer.weight.data[...] = 0.0
        layer.invalidate_weight_caches()
        assert np.allclose(layer.spectral(), 0.0)
        assert stale is not layer.spectral()


class TestDenseWeightCache:
    """The per-version ``W^T`` cache both layers run on."""

    @pytest.mark.parametrize("kind", ["circulant", "dense"])
    def test_cache_hit_returns_same_frozen_contiguous_array(self, rng, kind):
        layer = _layer(kind, 14, 10, 4, rng)
        first = layer.dense_transposed()
        layer(Tensor(rng.standard_normal((3, 14))))
        assert layer.dense_transposed() is first
        assert first.flags.c_contiguous and not first.flags.writeable
        assert np.array_equal(first, layer.weight_matrix().T)

    @pytest.mark.parametrize("kind", ["circulant", "dense"])
    def test_cache_refreshes_after_load_state_dict(self, rng, kind):
        layer = _layer(kind, 8, 6, 4, rng)
        donor = _layer(kind, 8, 6, 4, rng)
        layer.dense_transposed()
        layer.load_state_dict(donor.state_dict())
        assert np.array_equal(layer.dense_transposed(), donor.dense_transposed())

    @pytest.mark.parametrize("kind", ["circulant", "dense"])
    def test_forward_follows_an_optimizer_step(self, rng, kind):
        layer = _layer(kind, 8, 6, 4, rng)
        x = rng.standard_normal((3, 8))
        layer(Tensor(x)).sum().backward()
        nn.SGD(layer.parameters(), lr=0.1).step()
        expected = x @ layer.weight_matrix().T + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected, rtol=1e-12, atol=1e-12)

    def test_manual_invalidation_drops_both_caches(self, rng):
        layer = nn.BlockCirculantLinear(8, 8, 4, bias=False, rng=rng)
        x = Tensor(rng.standard_normal((2, 8)))
        before = layer(x).data
        spectral_before = layer.forward_spectral(x).data
        layer.weight.data[...] = 0.0
        # No version bump: both caches still hold the old weights ...
        assert np.array_equal(layer(x).data, before)
        assert np.array_equal(layer.forward_spectral(x).data, spectral_before)
        layer.invalidate_weight_caches()
        # ... until they are dropped.
        assert np.allclose(layer(x).data, 0.0)
        assert np.allclose(layer.forward_spectral(x).data, 0.0)


#: ``(in, out, n)`` layer shapes, some with padded blocks.
SHAPES = [(128, 41, 8), (131, 3, 8), (169, 41, 8), (14, 10, 4), (512, 512, 8), (600, 452, 8)]


class TestDensePath:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_forward_and_gradients_match_circulant_linear(self, rng, shape):
        in_features, out_features, block = shape
        layer = nn.BlockCirculantLinear(in_features, out_features, block, rng=rng)
        layer.bias.data[...] = rng.standard_normal(out_features)
        layer.bias.bump_version()
        kernels = (
            layer,
            layer.forward_spectral,
            lambda x: circulant_linear(x, layer.weight, layer.spec) + layer.bias,
        )
        x_data = rng.standard_normal((7, in_features))
        upstream = rng.standard_normal((7, out_features))
        results = []
        for kernel in kernels:
            layer.zero_grad()
            x = Tensor(x_data, requires_grad=True)
            out = kernel(x)
            (out * Tensor(upstream)).sum().backward()
            results.append((out.data, x.grad, layer.weight.grad, layer.bias.grad))
        for result in results[:2]:
            for got, want in zip(result, results[2]):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_gradcheck_with_padded_blocks(self, rng):
        layer = nn.BlockCirculantLinear(10, 7, 4, rng=rng)
        x = Tensor(rng.standard_normal((3, 10)), requires_grad=True)
        # The checker perturbs the shared weight array in place and bumps its
        # version, so every evaluation re-expands W^T.
        assert gradient_check(lambda v, _w: layer(v), [x, layer.weight])

    @pytest.mark.parametrize("kind", ["circulant", "dense"])
    @pytest.mark.parametrize("shape", [(128, 41, 8), (131, 3, 8), (128, 128, 8), (512, 512, 8)])
    def test_rows_do_not_depend_on_the_rest_of_the_batch(self, rng, shape, kind):
        # A BLAS kernel picked by row count (GEMV for one row, a small-matrix
        # kernel for a few) rounds differently from the one a full pass
        # takes; a served row must still equal its full_forward row.
        in_features, out_features, block = shape
        layer = _layer(kind, in_features, out_features, block, rng)
        x = rng.standard_normal((3 * ROW_TILE + 5, in_features))
        with no_grad():
            full = layer(Tensor(x)).data
            for rows in range(1, 2 * ROW_TILE + 2):
                picked = rng.choice(len(x), rows, replace=False)
                assert np.array_equal(layer(Tensor(x[picked])).data, full[picked]), rows
            assert np.array_equal(layer(Tensor(x[5])).data, full[5])


class TestBlockCirculantLinearTraining:
    def test_training_reduces_loss_on_regression(self, rng):
        layer = nn.BlockCirculantLinear(12, 4, 4, rng=rng)
        target_layer = nn.BlockCirculantLinear(12, 4, 4, rng=rng)
        optimizer = nn.Adam(layer.parameters(), lr=0.05)
        x = rng.standard_normal((64, 12))
        target = target_layer(Tensor(x)).data
        loss_fn = nn.MSELoss()
        first_loss = None
        for _ in range(60):
            out = layer(Tensor(x))
            loss = loss_fn(out, target)
            if first_loss is None:
                first_loss = loss.item()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        assert loss.item() < first_loss * 0.5
