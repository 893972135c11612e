"""Per-stage wall-clock accounting for the serving hot path.

A flush spends its time in five places: gathering stored rows from the
worker's embedding store (``cache_gather``), building the restriction plan,
aggregating neighbour features, combining them through the (possibly
FFT-based) weight matrices, and writing the fresh rows back into that store
(``cache_scatter``).  The store is the shared halo tier when the server runs
one and the worker's private store otherwise (a worker without a store
records no ``cache_scatter``).  ``halo_gather`` and ``halo_publish`` are
never fed, since a worker has one store; they stay in :data:`STAGES` so
readers that index them keep working.  :class:`StageTimer` attributes worker
time to those buckets so `serve-bench` (and future perf PRs) can see *where*
a flush goes, not just how long it took.

The timer is deliberately dependency-free on the model side: layers receive
it as an opaque object exposing ``stage(name)`` (see
:func:`repro.models.base.stage_scope`), so ``repro.models`` never imports the
serving package.

Allocation discipline: ``stage(name)`` returns a **cached** scope per stage
name — after the first flush touches a stage, re-entering it allocates
nothing (one dict lookup, two clock reads, one float add).  The scopes are
not re-entrant, which is fine: a worker's predict lock serialises its
flushes, and a stage never nests inside itself.  When the serving plane runs
with telemetry, :meth:`StageTimer.bind_histograms` additionally points each
scope at a labelled :class:`~repro.telemetry.LogHistogram` child so every
scope exit feeds the per-(stage, worker) distribution; unbound scopes pay a
single ``is not None`` check.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

__all__ = ["STAGES", "StageTimer", "merge_stage_totals"]

#: Bucket names in presentation order.
STAGES = (
    "cache_gather",
    "halo_gather",
    "plan_build",
    "aggregation",
    "combination",
    "cache_scatter",
    "halo_publish",
)


class _StageScope:
    """Hand-rolled context manager: a generator-based one costs ~3x as much
    to enter/exit, which matters at several scopes per flush."""

    __slots__ = ("_timer", "_name", "_start", "_hist")

    def __init__(self, timer: "StageTimer", name: str) -> None:
        self._timer = timer
        self._name = name
        self._hist = None

    def __enter__(self) -> None:
        self._start = self._timer._clock()

    def __exit__(self, *exc_info) -> None:
        timer = self._timer
        elapsed = timer._clock() - self._start
        totals = timer.totals
        totals[self._name] = totals.get(self._name, 0.0) + elapsed
        if self._hist is not None:
            self._hist.observe(elapsed)


class StageTimer:
    """Accumulates wall-clock seconds per named serving stage.

    One instance per worker; the worker's predict lock serialises access, so
    no internal synchronisation is needed.  ``clock`` is injectable for
    deterministic tests.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.totals: Dict[str, float] = {name: 0.0 for name in STAGES}
        # One scope per stage, allocated eagerly for the known stages so the
        # very first flush is already allocation-free on the stage() path.
        self._scopes: Dict[str, _StageScope] = {
            name: _StageScope(self, name) for name in STAGES
        }

    def stage(self, name: str) -> _StageScope:
        scope = self._scopes.get(name)
        if scope is None:  # ad-hoc stage outside STAGES: cache it too
            scope = _StageScope(self, name)
            self._scopes[name] = scope
        return scope

    def bind_histograms(self, family, worker_id: int) -> None:
        """Point every scope at its ``(stage, worker)`` histogram child."""
        for name, scope in self._scopes.items():
            scope._hist = family.labels(name, str(worker_id))

    def reset(self) -> None:
        for name in list(self.totals):
            self.totals[name] = 0.0

    def snapshot(self) -> Dict[str, float]:
        return dict(self.totals)


def merge_stage_totals(
    timers, out: Optional[Dict[str, float]] = None
) -> Dict[str, float]:
    """Element-wise sum of several timers' totals (engine-level aggregation).

    ``out`` lets callers reuse one accumulator dict across calls instead of
    allocating a fresh one each time; it is zeroed, filled and returned.
    """
    if out is None:
        merged: Dict[str, float] = {name: 0.0 for name in STAGES}
    else:
        merged = out
        for name in STAGES:
            merged[name] = 0.0
        for name in list(merged):
            if name not in STAGES:
                merged[name] = 0.0
    for timer in timers:
        for name, seconds in timer.totals.items():
            merged[name] = merged.get(name, 0.0) + seconds
    return merged
