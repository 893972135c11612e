"""Block-circulant matrix construction, expansion and projection.

A block-circulant weight matrix ``W`` of shape ``(N, M)`` is partitioned into
``p x q`` circulant blocks of size ``n x n`` with ``p = ceil(N / n)`` and
``q = ceil(M / n)`` (zero padding is used when ``N`` or ``M`` is not divisible
by ``n``).  Each block is fully described by a single length-``n`` defining
vector, so the whole matrix is stored as a ``(p, q, n)`` array.

Convention
----------
We use the *first-column* convention: a circulant block built from defining
vector ``w`` is ``C[r, c] = w[(r - c) mod n]``, so that ``C @ h`` equals the
circular convolution ``IFFT(FFT(w) * FFT(h))`` — exactly the compute path in
Figure 2 / Algorithm 1 of the paper.  (The paper's figure draws the
transposed, first-row indexing; because the defining vectors are *learned*,
the two conventions parameterise the same family of matrices and are
interchangeable.  ``circulant_from_first_row`` is provided for completeness.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = [
    "BlockCirculantSpec",
    "circulant_from_first_column",
    "circulant_from_first_row",
    "expand_block_circulant",
    "fold_block_circulant",
    "project_to_block_circulant",
    "random_block_circulant",
    "pad_to_multiple",
    "num_blocks",
]


@dataclass(frozen=True)
class BlockCirculantSpec:
    """Shape bookkeeping for a block-circulant matrix.

    Attributes
    ----------
    out_features, in_features:
        Logical (unpadded) dimensions ``N`` and ``M`` of the weight matrix.
    block_size:
        Circulant block size ``n``.
    """

    out_features: int
    in_features: int
    block_size: int

    def __post_init__(self) -> None:
        if self.out_features <= 0 or self.in_features <= 0:
            raise ValueError("matrix dimensions must be positive")
        if self.block_size <= 0:
            raise ValueError("block size must be positive")

    @property
    def p(self) -> int:
        """Number of block rows (``ceil(N / n)``)."""
        return -(-self.out_features // self.block_size)

    @property
    def q(self) -> int:
        """Number of block columns (``ceil(M / n)``)."""
        return -(-self.in_features // self.block_size)

    @property
    def padded_out(self) -> int:
        return self.p * self.block_size

    @property
    def padded_in(self) -> int:
        return self.q * self.block_size

    @property
    def dense_parameters(self) -> int:
        """Parameter count of the equivalent uncompressed matrix."""
        return self.out_features * self.in_features

    @property
    def circulant_parameters(self) -> int:
        """Parameter count of the block-circulant representation."""
        return self.p * self.q * self.block_size

    def weight_shape(self) -> Tuple[int, int, int]:
        """Shape of the defining-vector array ``(p, q, n)``."""
        return (self.p, self.q, self.block_size)


def num_blocks(dimension: int, block_size: int) -> int:
    """Number of blocks needed to cover ``dimension`` with ``block_size`` blocks."""
    if dimension <= 0 or block_size <= 0:
        raise ValueError("dimension and block size must be positive")
    return -(-dimension // block_size)


def pad_to_multiple(array: np.ndarray, block_size: int, axis: int = -1) -> np.ndarray:
    """Zero-pad ``array`` along ``axis`` so its length is a multiple of ``block_size``."""
    length = array.shape[axis]
    target = num_blocks(length, block_size) * block_size
    if target == length:
        return array
    pad_width = [(0, 0)] * array.ndim
    pad_width[axis] = (0, target - length)
    return np.pad(array, pad_width)


def circulant_from_first_column(column: np.ndarray) -> np.ndarray:
    """Build the ``n x n`` circulant matrix whose first column is ``column``.

    ``C[r, c] = column[(r - c) mod n]``; multiplying by ``C`` performs circular
    convolution with ``column``.
    """
    column = np.asarray(column)
    n = column.shape[-1]
    rows = np.arange(n)[:, None]
    cols = np.arange(n)[None, :]
    return column[..., (rows - cols) % n]


def circulant_from_first_row(row: np.ndarray) -> np.ndarray:
    """Build the ``n x n`` circulant matrix whose first row is ``row``.

    This is the indexing drawn in Figure 2 of the paper; it is the transpose
    of :func:`circulant_from_first_column` applied to the same vector.
    """
    return circulant_from_first_column(np.asarray(row)).swapaxes(-1, -2)


def expand_block_circulant(weights: np.ndarray, spec: BlockCirculantSpec) -> np.ndarray:
    """Expand defining vectors ``(p, q, n)`` into the dense ``(N, M)`` matrix.

    The expansion is exact (including zero-padding removal), so
    ``expand_block_circulant(w) @ x`` is the dense reference for the FFT-based
    kernels in :mod:`repro.compression.spectral`.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != spec.weight_shape():
        raise ValueError(
            f"weights shape {weights.shape} does not match spec {spec.weight_shape()}"
        )
    blocks = circulant_from_first_column(weights)  # (p, q, n, n)
    dense = blocks.transpose(0, 2, 1, 3).reshape(spec.padded_out, spec.padded_in)
    return dense[: spec.out_features, : spec.in_features]


def fold_block_circulant(matrix: np.ndarray, spec: BlockCirculantSpec) -> np.ndarray:
    """Sum a dense ``(N, M)`` matrix along each block's circulant diagonals.

    ``fold[i, j, d] = sum over (r - c) mod n == d of matrix[i*n + r, j*n + c]``,
    with the padding rows and columns taken as zero.  This is the adjoint of
    :func:`expand_block_circulant`: it maps the gradient of a loss with
    respect to the dense matrix onto the ``(p, q, n)`` defining vectors.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != (spec.out_features, spec.in_features):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match spec "
            f"{(spec.out_features, spec.in_features)}"
        )
    n = spec.block_size
    padded = pad_to_multiple(pad_to_multiple(matrix, n, axis=0), n, axis=1)
    blocks = padded.reshape(spec.p, n, spec.q, n).transpose(0, 2, 1, 3)  # (p, q, n, n)
    rows = np.arange(n)
    cols = (rows[None, :] - rows[:, None]) % n  # cols[d, r] = (r - d) mod n
    return blocks[:, :, rows[None, :], cols].sum(axis=-1)


def project_to_block_circulant(matrix: np.ndarray, block_size: int) -> Tuple[np.ndarray, BlockCirculantSpec]:
    """Project a dense matrix onto the nearest block-circulant matrix.

    For each ``n x n`` block the least-squares-optimal circulant approximation
    averages the ``n`` entries along each circulant diagonal.  This is how an
    existing dense model is converted into the compressed representation (and
    how the block-circulant constraint is enforced during training when using
    projection-based training rather than direct circulant parameterisation).

    Returns the ``(p, q, n)`` defining vectors and the associated spec.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-D weight matrix")
    spec = BlockCirculantSpec(matrix.shape[0], matrix.shape[1], block_size)
    return fold_block_circulant(matrix, spec) / spec.block_size, spec


def random_block_circulant(
    spec: BlockCirculantSpec,
    rng: np.random.Generator,
    scale: float | None = None,
) -> np.ndarray:
    """Sample random defining vectors with a fan-in-aware scale.

    The variance matches Glorot-style initialisation of the *equivalent dense
    matrix*: each dense entry of the expanded matrix is one of the defining
    values, so the defining vectors themselves are drawn with the same
    standard deviation a dense layer of shape ``(N, M)`` would use.
    """
    if scale is None:
        scale = float(np.sqrt(2.0 / (spec.in_features + spec.out_features)))
    return rng.normal(0.0, scale, size=spec.weight_shape())
