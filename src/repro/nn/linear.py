"""Dense and block-circulant fully-connected layers.

``Linear`` is the uncompressed baseline (the ``n = 1`` rows of Table III);
``BlockCirculantLinear`` is the compressed layer at the heart of BlockGNN.
Both compute ``y = x @ W^T + b`` so they are drop-in replacements for one
another, which is what allows :mod:`repro.compression.compress` to convert a
trained dense model layer-by-layer.  They also share one kernel: each
exposes its weight as the dense ``W^T`` (:meth:`~Linear.dense_transposed`,
cached per weight version) and runs the product on
:func:`row_tiled_matmul`, so a row's output has the same bits whatever the
layer's weight format and whatever other rows share the call.  Only the
weight gradient differs: ``Linear`` takes ``g^T x`` as it is, and
``BlockCirculantLinear`` folds it onto its defining vectors.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..compression.circulant import (
    BlockCirculantSpec,
    expand_block_circulant,
    fold_block_circulant,
    project_to_block_circulant,
)
from ..compression.spectral import circulant_linear, spectral_weights
from ..tensor.tensor import Tensor, ensure_tensor
from . import init
from .module import Module, Parameter

__all__ = ["Linear", "BlockCirculantLinear"]


#: Every weight product runs on blocks of exactly this many rows (the last
#: block zero-padded): both linear layers, the restricted combination
#: (:func:`repro.models.base.combine_rows`) and GAT's attention logits.
#: BLAS picks its kernel, and so its summation order, from the whole call
#: shape: on OpenBLAS a 1-row product takes the GEMV kernel and a few-row
#: product the small-matrix kernel, and both round differently from the
#: kernel a full-graph pass takes.  With one call shape per product, a row's
#: output does not depend on how many other rows share the call, so a served
#: row equals its ``full_forward`` row bit for bit.
ROW_TILE = 32


def row_tiled_matmul(x: np.ndarray, matrix: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``x @ matrix`` computed on :data:`ROW_TILE`-row blocks, so every row's
    result is independent of the other rows in ``x``.

    ``out``, when given, is a C-contiguous ``(len(x), matrix.shape[1])``
    float64 array the product is written into (and returned); a row slice
    of a larger output qualifies, so callers can fill one output slab by
    slab.  The bits do not depend on whether ``out`` is given.
    """
    rows, cols = x.shape[0], matrix.shape[1]
    whole = rows - rows % ROW_TILE
    if out is None:
        out = np.empty((rows, cols))
    elif out.shape != (rows, cols) or not out.flags.c_contiguous:
        # A non-contiguous out would be reshaped into a copy and never written.
        raise ValueError(f"out must be a C-contiguous ({rows}, {cols}) array")
    if whole:
        np.matmul(
            x[:whole].reshape(-1, ROW_TILE, x.shape[1]),
            matrix,
            out=out[:whole].reshape(-1, ROW_TILE, cols),
        )
    if whole < rows:
        tail = np.zeros((ROW_TILE, x.shape[1]))
        tail[: rows - whole] = x[whole:]
        out[whole:] = (tail @ matrix)[: rows - whole]
    return out


def _row_tiled_linear(
    x: Tensor, weight: Tensor, dense_t: np.ndarray, fold: Callable[[np.ndarray], np.ndarray]
) -> Tensor:
    """``x @ W^T`` through the dense ``dense_t = W^T``, differentiable in
    ``x`` and in ``weight``, onto which ``fold`` maps the dense gradient
    ``g^T x``.  ``x`` may have any leading dimensions."""
    x_data = x.data
    in_features, out_features = dense_t.shape
    if x_data.shape[-1] != in_features:
        raise ValueError(
            f"input feature dimension {x_data.shape[-1]} does not match the layer's ({in_features})"
        )
    flat = x_data.reshape(-1, in_features)
    out = row_tiled_matmul(flat, dense_t)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float64).reshape(-1, out_features)
        if x.requires_grad:
            x._accumulate((grad @ dense_t.T).reshape(x_data.shape))
        if weight.requires_grad:
            weight._accumulate(fold(grad.T @ flat))

    return Tensor._make(out.reshape(x_data.shape[:-1] + (out_features,)), (x, weight), backward)


class _RowTiledLinear(Module):
    """``y = x @ W^T + b`` on :func:`row_tiled_matmul`, with ``W^T`` derived
    from the weight parameter once per weight version.

    Sub-classes define ``weight`` and ``bias``; ``dense_transposed()``, the
    C-contiguous ``(in_features, out_features)`` matrix ``W^T`` (from
    :meth:`_derived`); and ``_fold(g)``, which maps a dense weight gradient
    onto ``weight`` (the adjoint of the weight's expansion into ``W``).
    """

    def __init__(self) -> None:
        super().__init__()
        self._weight_caches: dict = {}

    def _derived(self, kind, build) -> np.ndarray:
        """``build(weight.data)``, cached per ``(weight identity, weight.version)``.

        Identity so torch-style parameter replacement (``layer.weight =
        Parameter(...)``, whose fresh version counter restarts at 0) cannot
        serve the old parameter's derived arrays.  Any code path that mutates
        ``weight.data`` in place must call ``weight.bump_version()`` (the
        optimisers, ``load_state_dict`` and the quantisation utilities
        already do) or :meth:`invalidate_weight_caches`.  The returned array
        is shared and therefore frozen read-only — ``.copy()`` it before
        editing.
        """
        weight = self.weight
        cached = self._weight_caches.get(kind)
        if cached is None or cached[0] is not weight or cached[1] != weight.version:
            value = build(weight.data)
            value.flags.writeable = False
            cached = (weight, weight.version, value)
            self._weight_caches[kind] = cached
        return cached[2]

    def invalidate_weight_caches(self) -> None:
        """Drop the cached weight-derived arrays (for callers that mutated
        ``weight.data`` without bumping the parameter version)."""
        self._weight_caches.clear()

    def forward(self, x: Tensor) -> Tensor:
        out = _row_tiled_linear(ensure_tensor(x), self.weight, self.dense_transposed(), self._fold)
        if self.bias is not None:
            out = out + self.bias
        return out


class Linear(_RowTiledLinear):
    """Fully-connected layer ``y = x @ W^T + b`` with a dense weight matrix."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature dimensions must be positive")
        generator = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.glorot_uniform((out_features, in_features), in_features, out_features, generator),
            name="weight",
        )
        self.bias = Parameter(init.zeros(out_features), name="bias") if bias else None

    def dense_transposed(self) -> np.ndarray:
        """``W^T`` as a C-contiguous ``(in_features, out_features)`` copy,
        cached per weight version."""
        return self._derived("dense", lambda w: np.ascontiguousarray(w.T))

    def _fold(self, dense_grad: np.ndarray) -> np.ndarray:
        return dense_grad

    def weight_matrix(self) -> np.ndarray:
        """Dense weight matrix (``(out_features, in_features)``)."""
        return self.weight.data

    def __repr__(self) -> str:  # pragma: no cover
        return f"Linear(in={self.in_features}, out={self.out_features}, bias={self.bias is not None})"


class BlockCirculantLinear(_RowTiledLinear):
    """Fully-connected layer whose weight matrix is block-circulant.

    The weight is stored as the ``(p, q, n)`` defining vectors — ``N M / n``
    parameters — and ``FFT(W)`` feeds the accelerator model and the FFT
    kernel of Algorithm 1 (:meth:`forward_spectral`), whose forward
    complexity is ``O(N M log(n) / n)`` instead of ``O(N M)``.

    On a CPU that operation count does not become wall time at the shapes
    the models build: numpy's transforms and complex einsum run far below
    BLAS speed, so :meth:`forward` computes the same product as a BLAS GEMM
    with the expanded matrix ``W^T``.  Its backward folds the dense weight
    gradient onto the defining vectors
    (:func:`repro.compression.circulant.fold_block_circulant`), so training
    and inference share the one kernel.  :meth:`forward_spectral` computes
    the product with the rFFT kernel (real-input transforms over
    ``n // 2 + 1`` bins, Section V of the paper; ``use_rfft=False`` restores
    the complex-FFT datapath) on the cached spectrum the accelerator model
    reads too.

    The weights are static between optimiser steps, so both ``FFT(W)`` and
    ``W^T`` are computed once per weight :attr:`~repro.nn.Parameter.version`
    and reused by every forward *and* backward call (the software analogue of
    the accelerator's Weight Buffer; see :meth:`spectral`).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        block_size: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
        use_rfft: bool = True,
    ) -> None:
        super().__init__()
        generator = rng if rng is not None else np.random.default_rng()
        self.spec = BlockCirculantSpec(out_features, in_features, block_size)
        self.in_features = in_features
        self.out_features = out_features
        self.block_size = block_size
        self.use_rfft = use_rfft
        std = float(np.sqrt(2.0 / (in_features + out_features)))
        self.weight = Parameter(
            generator.normal(0.0, std, size=self.spec.weight_shape()), name="circulant_weight"
        )
        self.bias = Parameter(init.zeros(out_features), name="bias") if bias else None

    def spectral(self) -> np.ndarray:
        """The spectral weights ``FFT(W)`` (rFFT half-spectra unless
        ``use_rfft=False``), cached per weight version.

        The accelerator's Weight Buffer holds the same object, so the software
        path and the accelerator datapath share one transform per update.
        """
        return self._derived(
            ("spectral", self.use_rfft),
            lambda w: spectral_weights(w, use_rfft=self.use_rfft),
        )

    def dense_transposed(self) -> np.ndarray:
        """The expanded matrix ``W^T`` (``(in_features, out_features)``,
        C-contiguous), cached per weight version."""
        return self._derived(
            "dense", lambda w: np.ascontiguousarray(expand_block_circulant(w, self.spec).T)
        )

    def _fold(self, dense_grad: np.ndarray) -> np.ndarray:
        return fold_block_circulant(dense_grad, self.spec)

    def forward_spectral(self, x: Tensor) -> Tensor:
        """The same product as :meth:`forward` through the FFT kernel of
        Algorithm 1 on the cached spectral weights."""
        x = ensure_tensor(x)
        out = circulant_linear(
            x, self.weight, self.spec, use_rfft=self.use_rfft, spectral=self.spectral()
        )
        if self.bias is not None:
            out = out + self.bias
        return out

    def weight_matrix(self) -> np.ndarray:
        """Expand the defining vectors into the equivalent dense matrix."""
        return expand_block_circulant(self.weight.data, self.spec)

    @classmethod
    def from_dense(
        cls,
        dense: Linear,
        block_size: int,
    ) -> "BlockCirculantLinear":
        """Convert a trained dense layer by projecting its weight matrix.

        The projection averages each circulant diagonal of every block, which
        is the least-squares-optimal block-circulant approximation; the bias
        is copied unchanged.
        """
        layer = cls(
            dense.in_features,
            dense.out_features,
            block_size,
            bias=dense.bias is not None,
        )
        weights, _ = project_to_block_circulant(dense.weight.data, block_size)
        layer.weight.data[...] = weights
        layer.weight.bump_version()
        if dense.bias is not None and layer.bias is not None:
            layer.bias.data[...] = dense.bias.data
            layer.bias.bump_version()
        return layer

    def compression_ratio(self) -> float:
        """Parameter-count reduction relative to the equivalent dense layer."""
        return self.spec.dense_parameters / self.spec.circulant_parameters

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"BlockCirculantLinear(in={self.in_features}, out={self.out_features}, "
            f"n={self.block_size}, bias={self.bias is not None})"
        )
