"""How fast the host is right now, measured between the slices of a run.

This host does not have one speed.  It alternates, over seconds to minutes,
between its quiet speed and 1.2-1.7x slower (a neighbour on the same core or
cache), and a 30-s run that falls wholly into a slow stretch has no quiet
slice to find: run to run, the quiet estimate of a cold window read
130-147 ms and that of a warm window 3.3-5.8 ms.  A fixed kernel timed between
the slices reads the same stretches: over 18 overlapping 20-s stretches the
quiet window time divided by the quiet kernel time spread 1.4-2.4 % where the
window time alone spread 3-6 %, and the 1.7x stretch shrank to 1.25x.

So every timed end-to-end metric of the single-threaded workloads is reported
*at the nominal host speed*: the quiet estimate of the metric times
``nominal kernel time / quiet kernel time of the same run``.  The kernels are
benchmark code (numpy and plain Python, nothing of ``repro``), so no change to
the program moves them; the nominal times are constants, the quiet kernel
times on the host this benchmark was sized on, so a normalised figure reads
like a measured one taken while that host was quiet.  The raw figure and the
scale are in every run's diagnostics.

Two kernels, because two kinds of stretch exist and code feels them
differently: ``numeric`` streams a few MB through numpy and takes rFFTs, like
the models, the combination kernels and the sparse products (it follows cache
and memory contention, which the interpreter loop does not feel);
``interpreter`` is a dict-and-list loop, like the engine, batcher and
scheduler.  A workload names the one that does its work.  The open loop is not
normalised: its latency is mostly timer and wake-up, three processes share it,
and the kernel's speed says little about either.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

import numpy as np

from .estimator import quiet

clock = time.perf_counter

_STREAM = np.random.default_rng(0).standard_normal(512 * 1024)      # 4 MB
_SIGNAL = np.random.default_rng(1).standard_normal((1024, 16, 8))   # 1 MB


def numeric_kernel() -> float:
    scaled = _STREAM * 1.0001
    scaled += _STREAM
    spectrum = np.fft.rfft(_SIGNAL, axis=-1)
    return float(scaled[0] + np.fft.irfft(spectrum * spectrum, axis=-1)[0, 0, 0])


def interpreter_kernel() -> int:
    table: Dict[int, int] = {}
    for index in range(6000):
        key = (index * 7919) % 1021
        table[key] = table.get(key, 0) + index
    return sum(value for _, value in sorted(table.items())[:64])


#: kernel, nominal seconds (the quiet reading between slices on the 2-core VM
#: the benchmark was sized on; a constant, so figures of different commits
#: compare).
KERNELS: Dict[str, tuple] = {
    "numeric": (numeric_kernel, 1.8e-3),
    "interpreter": (interpreter_kernel, 0.97e-3),
}


class HostProbe:
    """Times one kernel whenever the workload is between two slices."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.kernel, self.nominal = KERNELS[kind]
        self.samples: List[float] = []

    def sample(self, count: int = 1) -> None:
        """Time ``count`` calls after one untimed call: the slice before it
        left the kernel's arrays out of the caches, and a cold call took
        2.4 ms where a warm one took 1.8."""
        kernel: Callable[[], object] = self.kernel
        kernel()
        for _ in range(count):
            start = clock()
            kernel()
            self.samples.append(clock() - start)

    def scale(self) -> float:
        """Factor that takes a time measured in this run to the nominal host
        speed (divide a rate by it); above 1 on a host faster than nominal."""
        return self.nominal / quiet(self.samples)
