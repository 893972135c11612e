"""Unit tests for the FFT-based kernels (Algorithm 1) and their gradients."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.circulant import BlockCirculantSpec, expand_block_circulant, random_block_circulant
from repro.compression.spectral import (
    block_circulant_matmul,
    block_circulant_matmul_rfft,
    block_circulant_matvec,
    block_circulant_matvec_spatial,
    block_circulant_operation_count,
    circulant_linear,
    dense_operation_count,
    fft_operation_count,
    rfft_bins,
    spectral_weights,
)
from repro.tensor import Tensor, gradient_check


@pytest.fixture
def batch(rng, circulant_spec):
    return rng.standard_normal((5, circulant_spec.in_features))


class TestKernelEquivalence:
    def test_fft_kernel_matches_dense(self, circulant_spec, circulant_weights, batch):
        dense = expand_block_circulant(circulant_weights, circulant_spec)
        out = block_circulant_matmul(batch, circulant_weights, circulant_spec)
        assert np.allclose(out, batch @ dense.T)

    def test_spatial_accumulation_matches_spectral(self, circulant_spec, circulant_weights, batch):
        spectral = block_circulant_matmul(batch, circulant_weights, circulant_spec)
        spatial = block_circulant_matvec_spatial(batch, circulant_weights, circulant_spec)
        assert np.allclose(spectral, spatial)

    def test_rfft_kernel_matches_complex(self, circulant_spec, circulant_weights, batch):
        complex_out = block_circulant_matmul(batch, circulant_weights, circulant_spec)
        real_out = block_circulant_matmul_rfft(batch, circulant_weights, circulant_spec)
        assert np.allclose(complex_out, real_out)

    def test_single_vector_variant(self, circulant_spec, circulant_weights, rng):
        vector = rng.standard_normal(circulant_spec.in_features)
        out = block_circulant_matvec(vector, circulant_weights, circulant_spec)
        assert out.shape == (circulant_spec.out_features,)
        dense = expand_block_circulant(circulant_weights, circulant_spec)
        assert np.allclose(out, dense @ vector)

    def test_precomputed_spectral_weights_path(self, circulant_spec, circulant_weights, batch):
        w_hat = spectral_weights(circulant_weights)
        out = block_circulant_matmul(batch, circulant_weights, circulant_spec, spectral=w_hat)
        reference = block_circulant_matmul(batch, circulant_weights, circulant_spec)
        assert np.allclose(out, reference)

    def test_input_dimension_mismatch_raises(self, circulant_spec, circulant_weights, rng):
        with pytest.raises(ValueError):
            block_circulant_matmul(rng.standard_normal((2, 7)), circulant_weights, circulant_spec)

    def test_spectral_weights_requires_3d(self):
        with pytest.raises(ValueError):
            spectral_weights(np.zeros((3, 3)))

    @pytest.mark.parametrize("block", [1, 2, 8])
    def test_various_block_sizes(self, rng, block):
        spec = BlockCirculantSpec(16, 24, block)
        weights = random_block_circulant(spec, rng)
        dense = expand_block_circulant(weights, spec)
        x = rng.standard_normal((3, 24))
        assert np.allclose(block_circulant_matmul(x, weights, spec), x @ dense.T)


class TestCirculantLinearAutograd:
    def test_forward_matches_kernel(self, circulant_spec, circulant_weights, batch):
        out = circulant_linear(Tensor(batch), Tensor(circulant_weights), circulant_spec)
        reference = block_circulant_matmul(batch, circulant_weights, circulant_spec)
        assert np.allclose(out.data, reference)

    def test_gradcheck_inputs_and_weights(self, circulant_spec, circulant_weights, rng):
        x = Tensor(rng.standard_normal((3, circulant_spec.in_features)), requires_grad=True)
        w = Tensor(circulant_weights, requires_grad=True)
        assert gradient_check(lambda a, b: circulant_linear(a, b, circulant_spec), [x, w])

    def test_gradcheck_single_vector(self, circulant_spec, circulant_weights, rng):
        x = Tensor(rng.standard_normal(circulant_spec.in_features), requires_grad=True)
        w = Tensor(circulant_weights, requires_grad=True)
        assert gradient_check(lambda a, b: circulant_linear(a, b, circulant_spec), [x, w])

    def test_gradient_matches_dense_formulation(self, rng):
        spec = BlockCirculantSpec(8, 12, 4)
        weights = random_block_circulant(spec, rng)
        x_data = rng.standard_normal((4, 12))
        x = Tensor(x_data, requires_grad=True)
        circulant_linear(x, Tensor(weights), spec).sum().backward()
        dense = expand_block_circulant(weights, spec)
        expected = np.ones((4, 8)) @ dense
        assert np.allclose(x.grad, expected)

    def test_weight_shape_mismatch_raises(self, circulant_spec, rng):
        with pytest.raises(ValueError):
            circulant_linear(
                Tensor(rng.standard_normal((2, circulant_spec.in_features))),
                Tensor(np.zeros((1, 1, 4))),
                circulant_spec,
            )


class TestRFFTCirculantLinear:
    """The rFFT rewrite of the autograd primitive (Section V fast path)."""

    def test_rfft_forward_matches_complex(self, circulant_spec, circulant_weights, batch):
        real = circulant_linear(Tensor(batch), Tensor(circulant_weights), circulant_spec, use_rfft=True)
        complex_ = circulant_linear(
            Tensor(batch), Tensor(circulant_weights), circulant_spec, use_rfft=False
        )
        assert np.allclose(real.data, complex_.data)

    @pytest.mark.parametrize(
        "out_features,in_features,block",
        [
            (8, 12, 4),    # even n, divisible dims
            (10, 14, 4),   # even n, padded dims
            (10, 15, 5),   # odd n, padded output
            (9, 15, 3),    # odd n, divisible dims
            (7, 11, 6),    # even n, both dims padded
        ],
    )
    def test_gradcheck_rfft(self, rng, out_features, in_features, block):
        spec = BlockCirculantSpec(out_features, in_features, block)
        weights = Tensor(random_block_circulant(spec, rng), requires_grad=True)
        x = Tensor(rng.standard_normal((3, in_features)), requires_grad=True)
        assert gradient_check(
            lambda a, b: circulant_linear(a, b, spec, use_rfft=True), [x, weights]
        )

    def test_gradcheck_rfft_single_vector(self, circulant_spec, circulant_weights, rng):
        x = Tensor(rng.standard_normal(circulant_spec.in_features), requires_grad=True)
        w = Tensor(circulant_weights, requires_grad=True)
        assert gradient_check(
            lambda a, b: circulant_linear(a, b, circulant_spec, use_rfft=True), [x, w]
        )

    def test_precomputed_spectral_matches(self, circulant_spec, circulant_weights, batch):
        w_hat = spectral_weights(circulant_weights, use_rfft=True)
        cached = circulant_linear(
            Tensor(batch), Tensor(circulant_weights), circulant_spec, use_rfft=True, spectral=w_hat
        )
        fresh = circulant_linear(
            Tensor(batch), Tensor(circulant_weights), circulant_spec, use_rfft=True
        )
        assert np.allclose(cached.data, fresh.data)

    def test_precomputed_spectral_reused_in_backward(self, circulant_spec, circulant_weights, rng):
        x = Tensor(rng.standard_normal((3, circulant_spec.in_features)), requires_grad=True)
        w = Tensor(circulant_weights, requires_grad=True)
        w_hat = spectral_weights(circulant_weights, use_rfft=True)
        circulant_linear(x, w, circulant_spec, use_rfft=True, spectral=w_hat).sum().backward()
        x2 = Tensor(x.data, requires_grad=True)
        w2 = Tensor(circulant_weights, requires_grad=True)
        circulant_linear(x2, w2, circulant_spec, use_rfft=True).sum().backward()
        assert np.allclose(x.grad, x2.grad)
        assert np.allclose(w.grad, w2.grad)

    def test_wrong_spectral_domain_rejected(self, circulant_spec, circulant_weights, batch):
        complex_hat = spectral_weights(circulant_weights, use_rfft=False)
        with pytest.raises(ValueError):
            circulant_linear(
                Tensor(batch),
                Tensor(circulant_weights),
                circulant_spec,
                use_rfft=True,
                spectral=complex_hat,
            )


class TestRFFTReferenceKernels:
    def test_matmul_use_rfft_matches_complex(self, circulant_spec, circulant_weights, batch):
        real = block_circulant_matmul(batch, circulant_weights, circulant_spec, use_rfft=True)
        complex_ = block_circulant_matmul(batch, circulant_weights, circulant_spec)
        assert np.allclose(real, complex_)

    def test_matmul_accepts_rfft_spectra(self, circulant_spec, circulant_weights, batch):
        w_hat = spectral_weights(circulant_weights, use_rfft=True)
        assert w_hat.shape[-1] == rfft_bins(circulant_spec.block_size)
        out = block_circulant_matmul(batch, None, circulant_spec, spectral=w_hat)
        reference = block_circulant_matmul(batch, circulant_weights, circulant_spec)
        assert np.allclose(out, reference)

    def test_matvec_accepts_rfft_spectra(self, circulant_spec, circulant_weights, rng):
        vector = rng.standard_normal(circulant_spec.in_features)
        w_hat = spectral_weights(circulant_weights, use_rfft=True)
        out = block_circulant_matvec(vector, None, circulant_spec, spectral=w_hat)
        reference = block_circulant_matvec(vector, circulant_weights, circulant_spec)
        assert np.allclose(out, reference)

    def test_weights_none_without_spectral_rejected(self, circulant_spec, batch):
        with pytest.raises(ValueError, match="spectral"):
            block_circulant_matmul(batch, None, circulant_spec)

    def test_complex_spectra_with_use_rfft_rejected(self, circulant_spec, circulant_weights, batch):
        complex_hat = spectral_weights(circulant_weights, use_rfft=False)
        with pytest.raises(ValueError, match="use_rfft"):
            block_circulant_matmul(
                batch, None, circulant_spec, spectral=complex_hat, use_rfft=True
            )

    def test_bad_spectral_bin_count_rejected(self, circulant_spec, circulant_weights, batch):
        bad = np.zeros((circulant_spec.p, circulant_spec.q, circulant_spec.block_size + 3), dtype=complex)
        with pytest.raises(ValueError):
            block_circulant_matmul(batch, circulant_weights, circulant_spec, spectral=bad)

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 8])
    def test_rfft_various_block_sizes(self, rng, block):
        spec = BlockCirculantSpec(16, 24, block)
        weights = random_block_circulant(spec, rng)
        dense = expand_block_circulant(weights, spec)
        x = rng.standard_normal((3, 24))
        assert np.allclose(block_circulant_matmul(x, weights, spec, use_rfft=True), x @ dense.T)


class TestOperationCounts:
    def test_fft_count_scaling(self):
        assert fft_operation_count(1) == 0.0
        assert fft_operation_count(128) == pytest.approx(5 * 128 * 7)

    def test_dense_count(self):
        assert dense_operation_count(512, 512) == 2 * 512 * 512

    def test_compressed_count_below_dense_for_large_blocks(self):
        spec = BlockCirculantSpec(512, 512, 128)
        assert block_circulant_operation_count(spec) < dense_operation_count(512, 512)

    def test_rfft_reduces_count(self):
        spec = BlockCirculantSpec(512, 512, 128)
        assert block_circulant_operation_count(spec, use_rfft=True) < block_circulant_operation_count(spec)

    def test_reduction_grows_with_block_size(self):
        reductions = []
        for block in (16, 32, 64, 128):
            spec = BlockCirculantSpec(512, 512, block)
            reductions.append(dense_operation_count(512, 512) / block_circulant_operation_count(spec))
        assert reductions == sorted(reductions)

