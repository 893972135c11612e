"""Pluggable execution layer for flush batches.

The scheduler hands each flush round to a :class:`FlushExecutor`: a list of
per-shard tasks that may run in any order but must all finish before the
round ends (a barrier, so a :class:`~repro.serving.clock.ManualClock` stays
constant within a round and submissions never race with in-flight flushes).

``SerialExecutor`` runs tasks in order on the calling thread — the default,
and what the deterministic tests drive.  ``ConcurrentExecutor`` fans tasks
out over a ``concurrent.futures.ThreadPoolExecutor``; NumPy's heavy kernels
(matmul, FFT) release the GIL, so shard flushes genuinely overlap.  Both
report the peak number of simultaneously running tasks, surfaced by
:class:`~repro.serving.stats.ServerStats`.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

__all__ = ["FlushExecutor", "SerialExecutor", "ConcurrentExecutor", "make_executor"]

T = TypeVar("T")
R = TypeVar("R")


class FlushExecutor:
    """Executes one round of flush tasks; results come back in task order."""

    name = "base"

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        raise NotImplementedError  # pragma: no cover - interface

    def shutdown(self) -> None:
        """Release any worker threads (idempotent)."""

    @property
    def peak_concurrency(self) -> int:
        """Highest number of tasks observed running at the same time."""
        return 0

    def reset_peak(self) -> None:
        """Forget the peak (used by ``InferenceServer.reset_stats``)."""


class SerialExecutor(FlushExecutor):
    """Runs every task inline on the calling thread, in submission order.

    This is the deterministic reference executor: with a fixed seed and a
    ``ManualClock`` two identical runs produce bit-identical predictions,
    latencies and stats.
    """

    name = "serial"

    def __init__(self) -> None:
        self._peak = 0

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        # Settle the whole round even if a task raises — same barrier
        # contract as ConcurrentExecutor.map: remaining shards still flush,
        # and the first error propagates only after the round completed.
        errors = []
        results: List[R] = []
        for item in items:
            self._peak = max(self._peak, 1)
            try:
                results.append(fn(item))
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
        if errors:
            raise errors[0]
        return results

    @property
    def peak_concurrency(self) -> int:
        return self._peak

    def reset_peak(self) -> None:
        self._peak = 0


class ConcurrentExecutor(FlushExecutor):
    """Thread-pool executor: one round's flush tasks run in parallel.

    ``max_workers`` bounds the fan-out (the engine passes one thread per
    shard replica).  The pool is created lazily so an
    unused executor costs nothing, and ``shutdown`` is safe to call twice.
    """

    name = "concurrent"

    def __init__(self, max_workers: int) -> None:
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = int(max_workers)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._gauge_lock = threading.Lock()
        self._inflight = 0
        self._peak = 0

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="serving-flush"
            )
        return self._pool

    def _tracked(self, fn: Callable[[T], R], item: T) -> R:
        with self._gauge_lock:
            self._inflight += 1
            self._peak = max(self._peak, self._inflight)
        try:
            return fn(item)
        finally:
            with self._gauge_lock:
                self._inflight -= 1

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        pool = self._ensure_pool()
        futures = [pool.submit(self._tracked, fn, item) for item in items]
        # Collect in task order; the first raising task propagates after the
        # whole round has settled (the barrier must hold even on failure).
        errors = []
        results: List[R] = []
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
        if errors:
            raise errors[0]
        return results

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    @property
    def peak_concurrency(self) -> int:
        return self._peak

    def reset_peak(self) -> None:
        with self._gauge_lock:
            self._peak = self._inflight


def make_executor(name: str, max_workers: int) -> FlushExecutor:
    """Build the executor named by ``ServingConfig.executor``."""
    if name == "serial":
        return SerialExecutor()
    if name == "concurrent":
        return ConcurrentExecutor(max_workers)
    if name == "process":
        # Imported lazily: procplane imports this module for ConcurrentExecutor.
        from .procplane import ProcessExecutor

        return ProcessExecutor(max_workers)
    raise ValueError(f"executor must be 'serial', 'concurrent' or 'process', got {name!r}")
