"""The fused restricted combination (``repro.models.base.combine_rows``).

Its contract: byte-equal to the unfused ``apply_linear`` → bias → ReLU (→
the next layer's projection) → scatter on the whole row set, for every core count and row count — the slab
cuts fall on ``ROW_TILE`` multiples, so a row's GEMM block is the one the
whole-set call gives it.  ``_core_count`` is patched so one-CPU hosts run the
slab path too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import base
from repro.models.base import SLAB_MIN_ROWS, _tile_slabs, apply_linear, combine_rows
from repro.nn import BlockCirculantLinear, Linear
from repro.nn.linear import ROW_TILE, row_tiled_matmul
from repro.tensor.tensor import Tensor, no_grad

ROWS = [1, 31, 32, 33, SLAB_MIN_ROWS - 1, SLAB_MIN_ROWS, SLAB_MIN_ROWS + 1, 2837]
CORES = [1, 2, 3, 7]
IN, OUT = 24, 16


def _layer(kind="circulant", bias=True):
    rng = np.random.default_rng(5)
    if kind == "circulant":
        layer = BlockCirculantLinear(IN, OUT, 8, bias=bias, rng=rng)
    else:
        layer = Linear(IN, OUT, bias=bias, rng=rng)
    if bias:  # non-zero, so a dropped or doubled bias shows
        layer.bias.data[...] = rng.standard_normal(OUT)
        layer.bias.bump_version()
    return layer


def _reference(layer, source, index, activation, buffer, positions):
    """The unfused combination: gather, ``apply_linear``, ReLU, scatter."""
    x = source if index is None else source[index]
    result = apply_linear(layer, Tensor(x))
    result = (result.relu() if activation else result).data
    if buffer is not None:
        buffer[positions] = result
    return result


def _case(rows, use_index, seed=0):
    rng = np.random.default_rng(seed)
    # Signed inputs: about half the outputs are clamped by the ReLU.
    source = rng.standard_normal((rows + 40, IN)) if use_index else rng.standard_normal((rows, IN))
    index = rng.permutation(len(source))[:rows] if use_index else None
    positions = rng.permutation(rows + 9)[:rows]
    return source, index, positions


class TestBytesEqualTheUnfusedPath:
    @pytest.mark.parametrize("cores", CORES)
    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("use_index", [False, True], ids=["rows", "memo-index"])
    @pytest.mark.parametrize("use_out", [False, True], ids=["return", "out"])
    @pytest.mark.parametrize("kind", ["circulant", "dense"])
    def test_circulant_layer(self, monkeypatch, kind, cores, rows, use_index, use_out):
        monkeypatch.setattr(base, "_core_count", lambda: cores)
        layer = _layer(kind)
        source, index, positions = _case(rows, use_index)
        expected_buffer = np.full((rows + 9, OUT), -7.0)
        with no_grad():
            expected = _reference(layer, source, index, True, expected_buffer, positions)
        buffer = np.full((rows + 9, OUT), -7.0)
        out = (buffer, positions) if use_out else None
        with no_grad():
            result = combine_rows(layer, source, index, True, out)
        assert result.tobytes() == expected.tobytes()
        if use_out:  # computed rows at their positions, the others untouched
            assert buffer.tobytes() == expected_buffer.tobytes()

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("kind,bias,activation", [
        ("circulant", False, True),
        ("circulant", True, False),
        ("dense", True, True),
        ("dense", False, False),
    ])
    def test_bias_activation_and_dense_layers(self, monkeypatch, cores, kind, bias, activation):
        monkeypatch.setattr(base, "_core_count", lambda: cores)
        layer = _layer(kind, bias)
        rows = SLAB_MIN_ROWS + 37
        source, index, positions = _case(rows, True, seed=3)
        expected_buffer, buffer = np.zeros((rows + 9, OUT)), np.zeros((rows + 9, OUT))
        with no_grad():
            expected = _reference(layer, source, index, activation, expected_buffer, positions)
            result = combine_rows(layer, source, index, activation, (buffer, positions))
        assert result.tobytes() == expected.tobytes()
        assert buffer.tobytes() == expected_buffer.tobytes()

    @pytest.mark.parametrize("cores", CORES)
    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("kind", ["circulant", "dense"])
    def test_projected_rows(self, monkeypatch, kind, cores, rows):
        """With ``project`` every row is also multiplied by the next layer's
        ``W'^T`` (no bias): the products are returned and scattered."""
        monkeypatch.setattr(base, "_core_count", lambda: cores)
        layer = _layer(kind)
        project = BlockCirculantLinear(OUT, 5, 4, rng=np.random.default_rng(6))
        source, index, positions = _case(rows, True)
        with no_grad():
            hidden = _reference(layer, source, index, True, None, None)
        expected = row_tiled_matmul(hidden, project.dense_transposed())
        buffer = np.full((rows + 9, 5), -7.0)
        expected_buffer = buffer.copy()
        expected_buffer[positions] = expected
        with no_grad():
            result = combine_rows(layer, source, index, True, (buffer, positions), project)
        assert result.tobytes() == expected.tobytes()
        assert buffer.tobytes() == expected_buffer.tobytes()

    def test_the_source_is_never_written(self, monkeypatch):
        monkeypatch.setattr(base, "_core_count", lambda: 3)
        source, index, positions = _case(SLAB_MIN_ROWS * 2, True)
        before = source.copy()
        with no_grad():
            combine_rows(_layer(), source, index, True, (np.empty((len(index) + 9, OUT)), positions))
        assert source.tobytes() == before.tobytes()


class TestSlabs:
    @pytest.mark.parametrize("cores", CORES)
    @pytest.mark.parametrize("rows", ROWS)
    def test_cuts_fall_on_row_tiles_and_cover_every_row(self, cores, rows):
        slabs = _tile_slabs(rows, cores)
        assert 1 <= len(slabs) <= cores
        assert slabs[0][0] == 0 and slabs[-1][1] == rows
        for (_, hi), (lo, _) in zip(slabs[:-1], slabs[1:]):
            assert hi == lo and lo % ROW_TILE == 0
        assert all(hi > lo for lo, hi in slabs)

    @pytest.mark.parametrize("rows,cores,expected", [
        (SLAB_MIN_ROWS - 1, 7, 0),   # below the threshold: inline
        (SLAB_MIN_ROWS, 1, 0),       # one core: inline
        (SLAB_MIN_ROWS, 2, 2),
        (2837, 3, 3),
        (2837, 7, 7),
    ])
    def test_slabs_run_on_the_pool_only_from_the_threshold_up(
        self, monkeypatch, rows, cores, expected
    ):
        monkeypatch.setattr(base, "_core_count", lambda: cores)
        seen = []
        original = base._run_slabs

        def counting(work, slabs, pool_cores):
            seen.append(len(slabs))
            return original(work, slabs, pool_cores)

        monkeypatch.setattr(base, "_run_slabs", counting)
        source, index, _ = _case(rows, True)
        with no_grad():
            combine_rows(_layer(), source, index)
        assert seen == ([expected] if expected else [])

    def test_a_failing_slab_raises_to_the_caller(self, monkeypatch):
        monkeypatch.setattr(base, "_core_count", lambda: 2)
        source, index, _ = _case(SLAB_MIN_ROWS, True)
        index[-1] = len(source) + 5  # out of range: only the last slab fails
        with no_grad(), pytest.raises(IndexError):
            combine_rows(_layer(), source, index)


class TestRowTiledMatmulOut:
    @pytest.mark.parametrize("rows", [1, 31, 32, 33, 100])
    def test_out_gives_the_same_bits_and_is_returned(self, rows):
        rng = np.random.default_rng(rows)
        x, matrix = rng.standard_normal((rows, IN)), rng.standard_normal((IN, OUT))
        expected = row_tiled_matmul(x, matrix)
        whole = np.full((rows + 4, OUT), np.nan)
        returned = row_tiled_matmul(x, matrix, out=whole[2:rows + 2])
        assert returned.base is whole
        assert whole[2:rows + 2].tobytes() == expected.tobytes()
        assert np.isnan(whole[:2]).all() and np.isnan(whole[rows + 2:]).all()

    def test_a_non_contiguous_or_misshapen_out_is_refused(self):
        x, matrix = np.ones((40, IN)), np.ones((IN, OUT))
        with pytest.raises(ValueError):
            row_tiled_matmul(x, matrix, out=np.empty((40, 2 * OUT))[:, ::2])
        with pytest.raises(ValueError):
            row_tiled_matmul(x, matrix, out=np.empty((39, OUT)))
