"""Unit tests for block-circulant matrix construction and projection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.circulant import (
    BlockCirculantSpec,
    circulant_from_first_column,
    circulant_from_first_row,
    expand_block_circulant,
    fold_block_circulant,
    num_blocks,
    pad_to_multiple,
    project_to_block_circulant,
    random_block_circulant,
)


class TestSpec:
    def test_block_counts_divisible(self):
        spec = BlockCirculantSpec(512, 512, 128)
        assert spec.p == 4 and spec.q == 4
        assert spec.padded_out == 512 and spec.padded_in == 512

    def test_block_counts_with_padding(self):
        spec = BlockCirculantSpec(10, 14, 4)
        assert spec.p == 3 and spec.q == 4
        assert spec.padded_out == 12 and spec.padded_in == 16

    def test_parameter_counts(self):
        spec = BlockCirculantSpec(512, 512, 128)
        assert spec.dense_parameters == 512 * 512
        assert spec.circulant_parameters == 4 * 4 * 128
        assert spec.dense_parameters / spec.circulant_parameters == pytest.approx(128.0)

    def test_weight_shape(self):
        assert BlockCirculantSpec(6, 9, 3).weight_shape() == (2, 3, 3)

    @pytest.mark.parametrize("out_f,in_f,block", [(0, 4, 2), (4, 0, 2), (4, 4, 0)])
    def test_invalid_dimensions(self, out_f, in_f, block):
        with pytest.raises(ValueError):
            BlockCirculantSpec(out_f, in_f, block)

    def test_num_blocks_helper(self):
        assert num_blocks(10, 4) == 3
        assert num_blocks(8, 4) == 2
        with pytest.raises(ValueError):
            num_blocks(0, 4)


class TestCirculantConstruction:
    def test_first_column_structure(self):
        column = np.array([1.0, 2.0, 3.0])
        matrix = circulant_from_first_column(column)
        expected = np.array([[1.0, 3.0, 2.0], [2.0, 1.0, 3.0], [3.0, 2.0, 1.0]])
        assert np.allclose(matrix, expected)
        assert np.allclose(matrix[:, 0], column)

    def test_first_row_is_transpose_of_first_column(self):
        vector = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(circulant_from_first_row(vector), circulant_from_first_column(vector).T)
        assert np.allclose(circulant_from_first_row(vector)[0], vector)

    def test_circulant_matvec_is_circular_convolution(self, rng):
        w = rng.standard_normal(8)
        h = rng.standard_normal(8)
        via_matrix = circulant_from_first_column(w) @ h
        via_fft = np.real(np.fft.ifft(np.fft.fft(w) * np.fft.fft(h)))
        assert np.allclose(via_matrix, via_fft)

    def test_batched_construction(self, rng):
        vectors = rng.standard_normal((2, 3, 4))
        matrices = circulant_from_first_column(vectors)
        assert matrices.shape == (2, 3, 4, 4)
        assert np.allclose(matrices[1, 2], circulant_from_first_column(vectors[1, 2]))


class TestPadding:
    def test_pad_to_multiple_extends_with_zeros(self):
        padded = pad_to_multiple(np.ones((2, 5)), 4, axis=-1)
        assert padded.shape == (2, 8)
        assert np.allclose(padded[:, 5:], 0.0)

    def test_pad_noop_when_divisible(self):
        data = np.ones((3, 8))
        assert pad_to_multiple(data, 4, axis=-1) is data


class TestExpansionAndProjection:
    def test_expand_shape(self, circulant_spec, circulant_weights):
        dense = expand_block_circulant(circulant_weights, circulant_spec)
        assert dense.shape == (10, 14)

    def test_expand_rejects_wrong_shape(self, circulant_spec):
        with pytest.raises(ValueError):
            expand_block_circulant(np.zeros((1, 1, 4)), circulant_spec)

    def test_blocks_are_circulant(self, rng):
        spec = BlockCirculantSpec(8, 8, 4)
        weights = random_block_circulant(spec, rng)
        dense = expand_block_circulant(weights, spec)
        block = dense[:4, 4:8]
        for row in range(1, 4):
            assert np.allclose(block[row], np.roll(block[row - 1], 1))

    def test_projection_roundtrip_exact_for_divisible_dims(self, rng):
        spec = BlockCirculantSpec(12, 16, 4)
        weights = random_block_circulant(spec, rng)
        dense = expand_block_circulant(weights, spec)
        recovered, recovered_spec = project_to_block_circulant(dense, 4)
        assert recovered_spec == spec
        assert np.allclose(recovered, weights)

    def test_projection_is_least_squares_optimal(self, rng):
        matrix = rng.standard_normal((8, 8))
        weights, spec = project_to_block_circulant(matrix, 4)
        best = expand_block_circulant(weights, spec)
        base_error = np.linalg.norm(matrix - best)
        for _ in range(5):
            perturbed = weights + 0.01 * rng.standard_normal(weights.shape)
            error = np.linalg.norm(matrix - expand_block_circulant(perturbed, spec))
            assert error >= base_error - 1e-12

    def test_projection_rejects_non_2d(self):
        with pytest.raises(ValueError):
            project_to_block_circulant(np.zeros((2, 2, 2)), 2)

    def test_block_size_one_projection_is_identity(self, rng):
        matrix = rng.standard_normal((5, 7))
        weights, spec = project_to_block_circulant(matrix, 1)
        assert np.allclose(expand_block_circulant(weights, spec), matrix)

    def test_fold_matches_loop_oracle_with_padding(self, rng):
        spec = BlockCirculantSpec(10, 7, 4)
        matrix = rng.standard_normal((10, 7))
        expected = np.zeros(spec.weight_shape())
        for row in range(10):
            for col in range(7):
                i, r = divmod(row, 4)
                j, c = divmod(col, 4)
                expected[i, j, (r - c) % 4] += matrix[row, col]
        assert np.allclose(fold_block_circulant(matrix, spec), expected)

    def test_fold_is_the_adjoint_of_expand(self, rng):
        spec = BlockCirculantSpec(13, 9, 4)
        weights = rng.standard_normal(spec.weight_shape())
        matrix = rng.standard_normal((13, 9))
        assert np.isclose(
            np.sum(expand_block_circulant(weights, spec) * matrix),
            np.sum(weights * fold_block_circulant(matrix, spec)),
        )

    def test_fold_rejects_wrong_shape(self, circulant_spec):
        with pytest.raises(ValueError):
            fold_block_circulant(np.zeros((14, 10)), circulant_spec)

    def test_random_block_circulant_scale(self, rng):
        spec = BlockCirculantSpec(256, 256, 16)
        weights = random_block_circulant(spec, rng)
        expected_std = np.sqrt(2.0 / (256 + 256))
        assert abs(weights.std() - expected_std) / expected_std < 0.15
