"""FFT-based kernels for block-circulant matrix multiplication.

This module contains:

* :func:`block_circulant_matvec` / :func:`block_circulant_matmul` —
  NumPy reference kernels implementing Algorithm 1 of the paper, in both the
  original *spatial-accumulation* form of CirCNN (one IFFT per block) and the
  optimised *spectral-accumulation* form used by BlockGNN (accumulate in the
  frequency domain, ``p`` IFFTs total).
* :func:`block_circulant_matmul_rfft` — the real-valued FFT variant discussed
  in Section V of the paper.
* :func:`spectral_weights` — pre-computation of ``FFT(W)`` (the ``W_hat``
  stored in the accelerator's Weight Buffer).
* :func:`circulant_linear` — the autograd primitive used by
  ``repro.nn.BlockCirculantLinear``; its backward pass is derived
  analytically in the frequency domain.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

try:  # scipy's pocketfft front-end is measurably faster than numpy's for the
    # batched short transforms these kernels are built from; fall back to
    # numpy when scipy is unavailable (identical results either way).
    from scipy import fft as _fftlib
except ImportError:  # pragma: no cover - scipy is a hard dep of repro.graph
    from numpy import fft as _fftlib

from ..tensor.tensor import Tensor, ensure_tensor
from .circulant import BlockCirculantSpec, pad_to_multiple

__all__ = [
    "rfft_bins",
    "spectral_weights",
    "block_circulant_matvec",
    "block_circulant_matmul",
    "block_circulant_matvec_spatial",
    "block_circulant_matmul_rfft",
    "circulant_linear",
    "fft_operation_count",
    "dense_operation_count",
    "block_circulant_operation_count",
]


# ---------------------------------------------------------------------------
# Pre-computation and reference kernels (pure NumPy, no autograd)
# ---------------------------------------------------------------------------


def rfft_bins(block_size: int) -> int:
    """Number of spectral bins of a real FFT over length-``block_size`` vectors."""
    return block_size // 2 + 1


def spectral_weights(weights: np.ndarray, use_rfft: bool = False) -> np.ndarray:
    """Pre-compute the spectral-domain weights ``FFT(W_ij)``.

    The accelerator stores these in the Weight Buffer so that only the feature
    FFTs need to be computed on-the-fly (Section III-A).  With ``use_rfft``
    only the ``n // 2 + 1`` non-redundant bins of the real-input transform are
    kept (Section V, "Use RFFT for Higher Speedup") — the defining vectors are
    real, so the remaining bins are conjugate mirrors.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 3:
        raise ValueError("expected defining vectors of shape (p, q, n)")
    if use_rfft:
        return _fftlib.rfft(weights, axis=-1)
    return _fftlib.fft(weights, axis=-1)


def _resolve_spectral(
    weights: Optional[np.ndarray],
    spec: BlockCirculantSpec,
    spectral: Optional[np.ndarray],
    use_rfft: bool,
) -> tuple:
    """Return ``(w_hat, use_rfft)``, computing ``FFT(W)`` if not supplied.

    A supplied ``spectral`` array is authoritative about the transform domain:
    ``(p, q, n)`` entries are complex-FFT spectra and ``(p, q, n // 2 + 1)``
    entries are rFFT spectra.  (For ``n <= 2`` the two coincide numerically,
    so the ambiguity is harmless.)
    """
    n = spec.block_size
    if spectral is not None:
        w_hat = np.asarray(spectral)
        if w_hat.shape[:2] != (spec.p, spec.q):
            raise ValueError(
                f"spectral weights shape {w_hat.shape} does not match spec blocks {(spec.p, spec.q)}"
            )
        if w_hat.shape[-1] == rfft_bins(n):
            return w_hat, True
        if w_hat.shape[-1] == n:
            if use_rfft:
                raise ValueError(
                    f"use_rfft=True but the supplied spectral weights are full "
                    f"{n}-bin complex-FFT spectra; pass "
                    f"spectral_weights(..., use_rfft=True) instead"
                )
            return w_hat, False
        raise ValueError(
            f"spectral weights have {w_hat.shape[-1]} bins; expected {n} (FFT) "
            f"or {rfft_bins(n)} (rFFT)"
        )
    if weights is None:
        raise ValueError("weights may only be None when precomputed spectral weights are supplied")
    return spectral_weights(weights, use_rfft=use_rfft), use_rfft


def _prepare_input(x: np.ndarray, spec: BlockCirculantSpec) -> np.ndarray:
    """Pad and reshape a batch of feature vectors to ``(batch, q, n)``."""
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.shape[-1] != spec.in_features:
        raise ValueError(
            f"input feature dimension {x.shape[-1]} does not match spec ({spec.in_features})"
        )
    x = pad_to_multiple(x, spec.block_size, axis=-1)
    x = x.reshape(x.shape[0], spec.q, spec.block_size)
    return x


def block_circulant_matmul(
    x: np.ndarray,
    weights: Optional[np.ndarray],
    spec: BlockCirculantSpec,
    spectral: Optional[np.ndarray] = None,
    use_rfft: bool = False,
) -> np.ndarray:
    """Multiply a batch of vectors by a block-circulant matrix via FFT.

    Implements Algorithm 1 with *spectral-domain accumulation*: the per-block
    products are summed in the frequency domain and only ``p`` IFFTs are
    applied per vector (the optimisation the paper derives from the linearity
    of the IFFT).

    Parameters
    ----------
    x:
        ``(batch, M)`` or ``(M,)`` real features.
    weights:
        ``(p, q, n)`` defining vectors (first columns of each block).  May be
        ``None`` when ``spectral`` is supplied.
    spec:
        Shape bookkeeping for the matrix.
    spectral:
        Optional pre-computed ``FFT(weights)`` (see :func:`spectral_weights`),
        either complex-FFT (``(p, q, n)``) or rFFT (``(p, q, n // 2 + 1)``)
        spectra — e.g. the ``(version, W_hat)`` cache of
        :class:`repro.nn.BlockCirculantLinear` or the accelerator's Weight
        Buffer contents.  The transform domain is inferred from the bin count.
    use_rfft:
        Compute with real-input transforms over ``n // 2 + 1`` bins
        (Section V).  Ignored when ``spectral`` already fixes the domain.

    Returns
    -------
    ``(batch, N)`` (or ``(N,)`` for a single vector) real outputs.
    """
    squeeze = np.asarray(x).ndim == 1
    blocks = _prepare_input(x, spec)
    w_hat, use_rfft = _resolve_spectral(weights, spec, spectral, use_rfft)
    if use_rfft:
        x_hat = _fftlib.rfft(blocks, axis=-1)
    else:
        x_hat = _fftlib.fft(blocks, axis=-1)
    # Accumulate over the q input blocks directly in the spectral domain.
    out_hat = np.einsum("pqn,bqn->bpn", w_hat, x_hat, optimize=True)
    if use_rfft:
        out = _fftlib.irfft(out_hat, n=spec.block_size, axis=-1)
    else:
        out = np.real(_fftlib.ifft(out_hat, axis=-1))
    out = out.reshape(out.shape[0], spec.padded_out)[:, : spec.out_features]
    return out[0] if squeeze else out


def block_circulant_matvec(
    x: np.ndarray,
    weights: Optional[np.ndarray],
    spec: BlockCirculantSpec,
    spectral: Optional[np.ndarray] = None,
    use_rfft: bool = False,
) -> np.ndarray:
    """Single-vector convenience wrapper around :func:`block_circulant_matmul`."""
    return block_circulant_matmul(np.asarray(x), weights, spec, spectral=spectral, use_rfft=use_rfft)


def block_circulant_matvec_spatial(
    x: np.ndarray,
    weights: np.ndarray,
    spec: BlockCirculantSpec,
) -> np.ndarray:
    """The original CirCNN compute flow: one IFFT per block, accumulate spatially.

    Mathematically identical to :func:`block_circulant_matmul` (the paper's
    observation that ``sum_i IFFT(v_i) == IFFT(sum_i v_i)``); kept as an
    executable reference for the equivalence tests and for counting the
    ``p * q`` vs ``p`` IFFT savings.
    """
    squeeze = np.asarray(x).ndim == 1
    blocks = _prepare_input(x, spec)
    w_hat = spectral_weights(weights)
    x_hat = _fftlib.fft(blocks, axis=-1)
    batch = blocks.shape[0]
    out = np.empty((batch, spec.p, spec.block_size), dtype=np.float64)
    for i in range(spec.p):
        # One (batched) IFFT per (i, j) block, vectorised over the q axis:
        # still p * q transforms per vector, preserving the kernel's role as
        # the p*q-vs-p IFFT accounting reference.
        products = w_hat[i][None, :, :] * x_hat  # (batch, q, n)
        out[:, i, :] = np.real(_fftlib.ifft(products, axis=-1)).sum(axis=1)
    out = out.reshape(batch, spec.padded_out)[:, : spec.out_features]
    return out[0] if squeeze else out


def block_circulant_matmul_rfft(
    x: np.ndarray,
    weights: np.ndarray,
    spec: BlockCirculantSpec,
) -> np.ndarray:
    """Real-valued FFT variant (Section V, "Use RFFT for Higher Speedup").

    GNN features are real, so only ``n/2 + 1`` spectral bins need to be
    computed and multiplied.  Produces outputs identical to the complex-FFT
    kernel while roughly halving the spectral-domain work.  Equivalent to
    :func:`block_circulant_matmul` with ``use_rfft=True``; kept as a named
    entry point for the Section V ablation.
    """
    return block_circulant_matmul(x, weights, spec, use_rfft=True)


# ---------------------------------------------------------------------------
# Autograd primitive
# ---------------------------------------------------------------------------


def circulant_linear(
    x: Tensor,
    weights: Tensor,
    spec: BlockCirculantSpec,
    use_rfft: bool = True,
    spectral: Optional[np.ndarray] = None,
) -> Tensor:
    """Differentiable block-circulant multiplication ``x @ W^T`` (batch x N).

    Forward:  ``Y_hat[b, i] = sum_j W_hat[i, j] * X_hat[b, j]``, ``y = IFFT(Y_hat)``.

    Backward (derived from the adjoint of circular convolution, using that the
    transpose of a circulant matrix is circular *correlation*):

    * ``dL/dX_hat[b, j] = sum_i conj(W_hat[i, j]) * G_hat[b, i]``
    * ``dL/dW_hat[i, j] = sum_b conj(X_hat[b, j]) * G_hat[b, i]``

    followed by an inverse transform (all spatial-domain quantities are real).

    By default the whole primitive — forward *and* both analytic gradients —
    runs on real-input transforms (``np.fft.rfft`` / ``irfft``) over the
    ``n // 2 + 1`` non-redundant bins, the Section V "Use RFFT for Higher
    Speedup" optimisation.  This is exact: every full spectrum involved
    (``W_hat``, ``X_hat``, ``G_hat`` and their bin-wise products) is Hermitian
    because the underlying signals are real, so the dropped bins carry no
    information.  Pass ``use_rfft=False`` to fall back to the complex FFT.

    ``spectral`` optionally supplies a pre-computed ``FFT(W)`` in the matching
    domain (the per-version cache of :class:`repro.nn.BlockCirculantLinear`);
    the same spectrum is reused by the backward pass, so with a warm cache a
    training step performs no weight transforms at all outside
    ``optimizer.step()``'s cache invalidation.
    """
    x = ensure_tensor(x)
    weights = ensure_tensor(weights)
    if weights.shape != spec.weight_shape():
        raise ValueError(
            f"weights shape {weights.shape} does not match spec {spec.weight_shape()}"
        )

    x_data = x.data
    squeeze = x_data.ndim == 1
    if squeeze:
        x_data = x_data[None, :]
    if x_data.shape[-1] != spec.in_features:
        raise ValueError(
            f"input feature dimension {x_data.shape[-1]} does not match spec ({spec.in_features})"
        )
    batch = x_data.shape[0]
    n = spec.block_size

    def forward_fft(values: np.ndarray, axis: int = -1) -> np.ndarray:
        if use_rfft:
            return _fftlib.rfft(values, axis=axis)
        return _fftlib.fft(values, axis=axis)

    def inverse_fft(spectrum: np.ndarray) -> np.ndarray:
        if use_rfft:
            return _fftlib.irfft(spectrum, n=n, axis=-1)
        return np.real(_fftlib.ifft(spectrum, axis=-1))

    if spectral is not None:
        w_hat = np.asarray(spectral)
        expected_bins = rfft_bins(n) if use_rfft else n
        if w_hat.shape != (spec.p, spec.q, expected_bins):
            raise ValueError(
                f"precomputed spectral weights shape {w_hat.shape} does not match "
                f"{(spec.p, spec.q, expected_bins)} (use_rfft={use_rfft})"
            )
    else:
        w_hat = forward_fft(weights.data, axis=-1)

    padded = pad_to_multiple(x_data, n, axis=-1).reshape(batch, spec.q, n)
    x_hat = forward_fft(padded, axis=-1)
    out_hat = np.einsum("pqn,bqn->bpn", w_hat, x_hat, optimize=True)
    out = inverse_fft(out_hat).reshape(batch, spec.padded_out)
    out = out[:, : spec.out_features]
    if squeeze:
        out = out[0]

    def backward(grad: np.ndarray) -> None:
        grad_arr = np.asarray(grad, dtype=np.float64)
        if squeeze:
            grad_arr = grad_arr[None, :]
        padded_grad = np.zeros((batch, spec.padded_out), dtype=np.float64)
        padded_grad[:, : spec.out_features] = grad_arr
        g_hat = forward_fft(padded_grad.reshape(batch, spec.p, n), axis=-1)
        if x.requires_grad:
            gx_hat = np.einsum("pqn,bpn->bqn", np.conj(w_hat), g_hat, optimize=True)
            gx = inverse_fft(gx_hat).reshape(batch, spec.padded_in)
            gx = gx[:, : spec.in_features]
            x._accumulate(gx[0] if squeeze else gx)
        if weights.requires_grad:
            gw_hat = np.einsum("bqn,bpn->pqn", np.conj(x_hat), g_hat, optimize=True)
            weights._accumulate(inverse_fft(gw_hat))

    return Tensor._make(out, (x, weights), backward)


# ---------------------------------------------------------------------------
# Operation counting (used by Table II / Table III analyses)
# ---------------------------------------------------------------------------


def fft_operation_count(n: int) -> float:
    """Real-arithmetic operation count of one length-``n`` complex FFT.

    Uses the textbook radix-2 estimate ``5 n log2(n)`` real operations
    (complex butterflies cost one complex multiply + two complex adds).
    """
    if n <= 1:
        return 0.0
    return 5.0 * n * np.log2(n)


def dense_operation_count(out_features: int, in_features: int) -> float:
    """Multiply-accumulate operation count of a dense mat-vec (2 * N * M FLOPs)."""
    return 2.0 * out_features * in_features


def block_circulant_operation_count(spec: BlockCirculantSpec, use_rfft: bool = False) -> float:
    """FLOPs of one compressed mat-vec using Algorithm 1.

    ``q`` input FFTs + ``p * q`` spectral element-wise complex MACs + ``p``
    IFFTs.  With RFFT only ``n/2 + 1`` bins are processed in the MAC stage and
    the transforms cost roughly half as much.
    """
    n = spec.block_size
    transform = fft_operation_count(n)
    bins = n // 2 + 1 if use_rfft else n
    if use_rfft:
        transform *= 0.5
    mac = 8.0 * bins  # complex multiply (6) + complex add (2) per bin
    return spec.q * transform + spec.p * spec.q * mac + spec.p * transform
