"""The quiet-slice estimator.

On a shared host the processor is taken away for milliseconds to seconds at
a time, so the *median* of a run's slices moves with how busy the neighbours
were, while the fast tail — the slices that ran undisturbed — is bounded by
what the program can actually do and repeats from run to run.  A run is
therefore cut into many slices of identical work, each slice yields its own
goodput and latency percentiles, and the run reports a low percentile across
slices for times (a high one for rates).  Not the minimum: one lucky slice
must not set the number.

Which percentile: the 5th (95th for rates) from 20 slices on, the issue's
10th/90th for shorter series (of 8 values the 5th percentile is the minimum
plus a third of the gap to the next).  Measured while a neighbour was busy,
well over a tenth of the slices are disturbed: between 16 consecutive half
runs of the warm loop the 10th percentile of the per-window times had an
inter-quartile range of 7.7 %, the 5th of 5.3 % (and the median of 19 %).  One
percentile for every count from 20 on, because the loops run against a
deadline, the count of slices differs from run to run, and a percentile that
changed with it would step.

What the estimator cannot do is find a quiet slice in a run that had none;
``hostprobe.py`` deals with those.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

#: (slices needed, quantile from the good end of the per-slice values).
TIERS = ((20, 0.05), (0, 0.10))


def quiet_quantile(slices: int) -> float:
    return next(q for needed, q in TIERS if slices >= needed)


def quiet(values: Sequence[float], better: str = "lower") -> float:
    """What a per-slice metric reads when the host is not being stolen from."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    data = np.asarray(values, dtype=np.float64)
    if data.size == 0:
        raise ValueError("quiet() needs at least one slice")
    q = quiet_quantile(data.size)
    if better == "higher":
        q = 1.0 - q
    return float(np.quantile(data, q))


def quiet_scaled(values: Sequence[float], scale: Sequence[float]) -> float:
    """A per-slice metric as its typical multiple of ``scale``, at the quiet ``scale``.

    For metrics whose per-slice value depends on how the slice's requests
    happened to fall as much as on the host: a latency percentile inside a
    closed-loop window (which flush served the request), the p90 of an
    open-loop slice (how bursty its arrivals were).  A slow host stretches
    such a value and the slice's ``scale`` — its wall time, its p50 — alike,
    so their ratio belongs to the workload: it is taken from the middle of the
    slices, where it is best known, and only the scale from the quiet end.
    The quiet percentile of the values themselves picks the slices whose
    requests fell well and moved two to three times as much between runs.
    """
    ratio = np.asarray(values, dtype=np.float64) / np.asarray(scale, dtype=np.float64)
    return float(np.median(ratio)) * quiet(scale)


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile as an observed sample (rank ``ceil(q * n)``)."""
    data = np.sort(np.asarray(values, dtype=np.float64))
    if data.size == 0:
        raise ValueError("nearest_rank() needs at least one sample")
    rank = max(1, math.ceil(q * data.size))
    return float(data[rank - 1])


def iqr_share(values: Sequence[float]) -> float:
    """Inter-quartile range over the median: how noisy a series was."""
    data = np.asarray(values, dtype=np.float64)
    if data.size < 2:
        return 0.0
    q1, q2, q3 = np.quantile(data, [0.25, 0.5, 0.75])
    return float((q3 - q1) / q2) if q2 else 0.0
