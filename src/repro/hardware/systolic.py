"""Weight-stationary systolic array for spectral-domain MACs (CirCore stage 2).

Functional behaviour: given the pre-loaded spectral weights ``W_hat`` of shape
``(p, q, n)`` and a batch of spectral feature sub-vectors ``X_hat`` of shape
``(vectors, q, n)``, produce the accumulated spectral outputs
``Y_hat[v, i] = sum_j W_hat[i, j] * X_hat[v, j]`` — exactly the inner loop of
Algorithm 1 before the IFFT.

Timing behaviour: the ``r x c`` PE array processes ``r`` input sub-vectors and
``c`` output sub-vectors per pass, with each PE performing ``l`` element-wise
complex MACs per cycle, giving the paper's
``ceil(q/r) * ceil(p/c) * ceil(n/l)`` cycles per feature vector (Eq. 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import HardwareConstants, ZC706

__all__ = ["SystolicArray"]


@dataclass
class SystolicArray:
    """An ``r x c`` weight-stationary systolic array with SIMD-``l`` PEs."""

    rows: int
    cols: int
    pe_parallelism: int = 1
    block_size: int = 128
    constants: HardwareConstants = ZC706
    _weights: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    macs_processed: int = field(default=0, init=False)
    busy_cycles: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0 or self.pe_parallelism <= 0:
            raise ValueError("array dimensions and PE parallelism must be positive")

    # -- weight loading -----------------------------------------------------------

    def load_weights(self, spectral_weights: np.ndarray) -> None:
        """Pre-load the spectral weights (weight-stationary dataflow).

        Accepts either complex-FFT spectra (``(p, q, n)``) or the
        ``(p, q, n // 2 + 1)``-bin rFFT half-spectra of Section V — the MAC
        stage is agnostic, it simply multiplies whatever bins flow through.
        """
        spectral_weights = np.asarray(spectral_weights)
        if spectral_weights.ndim != 3 or spectral_weights.shape[-1] not in (
            self.block_size,
            self.block_size // 2 + 1,
        ):
            raise ValueError(
                "spectral weights must have shape (p, q, n) or (p, q, n // 2 + 1)"
            )
        self._weights = spectral_weights

    # -- timing ----------------------------------------------------------------------

    def cycles_for(self, num_vectors: int, p: Optional[int] = None, q: Optional[int] = None) -> int:
        """Equation 4 for ``num_vectors`` feature vectors against a ``p x q`` block grid."""
        if num_vectors <= 0:
            return 0
        if p is None or q is None:
            if self._weights is None:
                raise RuntimeError("weights must be loaded (or p/q given) to estimate cycles")
            p = self._weights.shape[0]
            q = self._weights.shape[1]
        per_vector = (
            math.ceil(q / self.rows)
            * math.ceil(p / self.cols)
            * math.ceil(self.block_size / self.pe_parallelism)
        )
        return num_vectors * per_vector

    # -- functional simulation ----------------------------------------------------------

    def process(self, spectral_inputs: np.ndarray) -> np.ndarray:
        """Multiply-accumulate spectral inputs against the loaded weights.

        ``spectral_inputs`` has shape ``(vectors, q, n)``; the result has shape
        ``(vectors, p, n)``.
        """
        if self._weights is None:
            raise RuntimeError("load_weights() must be called before process()")
        spectral_inputs = np.asarray(spectral_inputs)
        if spectral_inputs.ndim == 2:
            spectral_inputs = spectral_inputs[None, ...]
        p, q, bins = self._weights.shape
        if spectral_inputs.shape[1] != q or spectral_inputs.shape[2] != bins:
            raise ValueError(
                f"spectral input shape {spectral_inputs.shape} incompatible with weights {(p, q, bins)}"
            )
        outputs = np.einsum("pqn,vqn->vpn", self._weights, spectral_inputs)
        vectors = spectral_inputs.shape[0]
        self.macs_processed += vectors * p * q * bins
        self.busy_cycles += self.cycles_for(vectors, p, q)
        return outputs

    def reset_stats(self) -> None:
        self.macs_processed = 0
        self.busy_cycles = 0

    @property
    def num_pes(self) -> int:
        return self.rows * self.cols

    @property
    def dsp_cost(self) -> int:
        """DSPs consumed by the array (``r * c * gamma(l)``)."""
        return self.num_pes * self.constants.pe_dsps(self.pe_parallelism)
