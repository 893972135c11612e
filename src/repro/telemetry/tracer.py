"""Per-request tracing: the span story behind every terminal state.

The aggregate counters say *how many* requests expired or failed over; the
tracer says *why this one did*.  Every :class:`~repro.serving.InferenceRequest`
gets a root span from ``submit`` to its terminal state, annotated with its
queue wait (dequeue time) and linked — through the batch it flushed in — to
**attempt records**: one per dispatch attempt of the batch, carrying the
replica id, the replica state at dispatch (healthy/suspect), the
injected-fault kind (if any), and a per-stage time breakdown of successful
attempts.  Attempts are recorded at *batch* granularity, exactly the
granularity at which the engine consults the fault plan and the
:class:`~repro.serving.replicas.ReplicaSet` — so failed attempt records and
the set's per-replica failure counts match one for one.

Memory is bounded: finished traces and attempt records live in ring buffers
of ``capacity`` entries (oldest dropped first, ``dropped_*`` counters say how
many).  When tracing is off the engine holds ``tracer = None`` and every call
site is a single ``is not None`` check — O(1), no allocation, no lock.

Records are plain dicts (not dataclasses): they are built on the serving hot
path, exported as JSON, and merged into Chrome trace events — a dict is the
cheapest thing that does all three.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, List, Optional, Sequence

__all__ = ["RequestTracer"]


class RequestTracer:
    """Bounded ring of request root spans + batch-level attempt records."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("trace capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._active: Dict[int, dict] = {}
        self._finished: deque = deque(maxlen=self.capacity)
        self._attempts: deque = deque(maxlen=self.capacity)
        self.dropped_traces = 0
        self.dropped_attempts = 0

    # -- request lifecycle -------------------------------------------------------

    def on_submit(self, request_id: int, node: int, shard_id: int, now: float) -> None:
        """Open the root span (before admission — rejects are traced too).

        Lock-free: one dict store, atomic under the GIL.  Request ids are
        unique, so concurrent submitters never touch the same key, and the
        span is invisible to readers until :meth:`on_terminal` closes it.
        """
        self._active[request_id] = {
            "request_id": request_id,
            "node": node,
            "shard": shard_id,
            "submit": now,
            "dequeue": None,
            "status": None,
            "end": None,
            "worker_id": None,
            "retries": 0,
        }

    def on_dequeue(self, request_ids: Sequence[int], now: float) -> None:
        """The batch left its queue: close every member's queue-wait span.

        Lock-free: each request is owned by exactly one in-flight batch, so
        no other thread writes these traces concurrently.
        """
        active = self._active
        for request_id in request_ids:
            trace = active.get(request_id)
            if trace is not None and trace["dequeue"] is None:
                trace["dequeue"] = now

    def on_terminal(
        self,
        request_id: int,
        status: str,
        now: float,
        worker_id: Optional[int] = None,
        retries: int = 0,
    ) -> None:
        """Close the root span with the request's one terminal state."""
        trace = self._active.pop(request_id, None)  # atomic; exactly-once
        if trace is None:
            return  # submitted before tracing was enabled/reset
        trace["status"] = status
        trace["end"] = now
        trace["worker_id"] = worker_id
        trace["retries"] = retries
        with self._lock:  # only the ring + its drop counter need the lock
            if len(self._finished) == self._finished.maxlen:
                self.dropped_traces += 1
            self._finished.append(trace)

    # -- dispatch attempts (batch granularity) -----------------------------------

    def attempt(
        self,
        shard_id: int,
        worker_id: Optional[int],
        request_ids: Sequence[int],
        index: int,
        state: Optional[str],
        start: float,
    ) -> dict:
        """Open attempt ``index`` of a batch dispatch; returns the open record.

        The record is not visible in :attr:`attempts` until
        :meth:`end_attempt` closes it — a crash between the two leaves no
        half-open record behind.
        """
        return {
            "shard": shard_id,
            "worker_id": worker_id,
            "request_ids": list(request_ids),
            "attempt": index,
            "state": state,
            "start": start,
            "end": None,
            "outcome": None,
            "fault": None,
            "stages": None,
        }

    def end_attempt(
        self,
        record: dict,
        now: float,
        outcome: str,
        fault: Optional[str] = None,
        stages: Optional[Dict[str, float]] = None,
    ) -> None:
        """Close an attempt: ``ok`` | ``error`` | ``degraded`` (+ fault kind)."""
        record["end"] = now
        record["outcome"] = outcome
        record["fault"] = fault
        if stages:
            record["stages"] = {name: value for name, value in stages.items() if value > 0}
        with self._lock:
            if len(self._attempts) == self._attempts.maxlen:
                self.dropped_attempts += 1
            self._attempts.append(record)

    # -- reads -------------------------------------------------------------------

    @property
    def active_count(self) -> int:
        return len(self._active)

    def finished(self) -> List[dict]:
        """Closed root spans, oldest first (bounded by ``capacity``)."""
        with self._lock:
            return list(self._finished)

    def attempts(self) -> List[dict]:
        """Closed attempt records, oldest first (bounded by ``capacity``)."""
        with self._lock:
            return list(self._attempts)

    def failed_attempts_by_worker(self) -> Dict[int, int]:
        """``worker_id -> failed dispatch attempts`` seen by the tracer.

        Matches :class:`~repro.serving.replicas.ReplicaSet` failure counts
        exactly (both count per batch dispatch) while the ring has not
        dropped records.
        """
        counts: Dict[int, int] = {}
        for record in self.attempts():
            if record["outcome"] == "error" and record["worker_id"] is not None:
                counts[record["worker_id"]] = counts.get(record["worker_id"], 0) + 1
        return counts

    def reset(self) -> None:
        """Drop finished rings and open spans (fresh measurement window)."""
        with self._lock:
            self._active.clear()
            self._finished.clear()
            self._attempts.clear()
            self.dropped_traces = 0
            self.dropped_attempts = 0
