"""Clock abstraction for the serving engine.

The micro-batcher's time-based flush policy and every latency measurement go
through a :class:`Clock`, so tests can drive the engine with a
:class:`ManualClock` and get bit-for-bit reproducible latencies and flush
decisions — no wall-clock dependence anywhere in the serving logic.
Production code uses :class:`SystemClock` (``time.perf_counter``).
"""

from __future__ import annotations

import threading
import time

__all__ = ["Clock", "SystemClock", "ManualClock"]


class Clock:
    """Monotonic time source (seconds as ``float``)."""

    def now(self) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:  # pragma: no cover - interface
        """Let ``seconds`` of clock time pass (injected hangs)."""
        raise NotImplementedError


class SystemClock(Clock):
    """Real wall-clock time via ``time.perf_counter``."""

    # The builtin itself, not a method wrapping it: admission reads the
    # clock once per request, and a Python frame per read would double
    # that cost.
    now = staticmethod(time.perf_counter)

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class ManualClock(Clock):
    """A simulated clock advanced explicitly by the caller.

    Used by the test-suite to make queueing delays and latency statistics
    deterministic: the clock only moves when :meth:`advance` (or ``tick``) is
    called, so a request's measured latency is exactly the simulated time the
    test chose to let pass.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Move the clock forward by ``seconds`` (must be non-negative)."""
        if seconds < 0:
            raise ValueError("a monotonic clock cannot move backwards")
        with self._lock:
            self._now += float(seconds)
            return self._now

    tick = advance

    def sleep(self, seconds: float) -> None:
        """Simulated sleep: advances the clock instead of blocking the thread.

        Injected hangs become pure clock arithmetic under tests — no wall
        time passes, so "hang for 50 ms" costs nothing but makes deadline
        expiry observable.
        """
        if seconds < 0:
            raise ValueError("a monotonic clock cannot move backwards")
        self.advance(seconds)
