"""Per-request tracing: the span story behind every terminal state.

The aggregate counters say *how many* requests expired or failed over; the
tracer says *why this one did*.  Every request gets a root span from submit
to its terminal state, with its queue wait (dequeue time), and is linked —
through the batch it flushed in — to **attempt records**: one per dispatch
attempt of the batch, carrying the replica id, the replica state at dispatch
(healthy/suspect), the injected-fault kind (if any), and a per-stage time
breakdown of successful attempts.  Attempts are recorded at *batch*
granularity, exactly the granularity at which the engine consults the fault
plan and the :class:`~repro.serving.replicas.ReplicaSet` — so failed attempt
records and the set's per-replica failure counts match one for one.

Root spans are read from the serving engine's request ledger, the only
per-request record: the engine hands settled rows' columns to
:meth:`RequestTracer.on_settled` (one call per terminal transition), which
copies them into a columnar ring, never holding a ledger block.  Spans and
attempt records live in rings of ``capacity`` entries allocated up front
(oldest overwritten first, ``dropped_*`` counters say how many).  When
tracing is off the engine holds ``tracer = None``.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

__all__ = ["RequestTracer"]

#: One root span per ring row, its fields in the order of the dicts
#: :meth:`RequestTracer.finished` returns.  ``dequeue`` is ``nan`` for a
#: request never popped and ``worker_id`` -1 for one that did not complete.
_SPAN = np.dtype(
    [
        ("request_id", np.int64),
        ("node", np.int64),
        ("shard", np.int64),
        ("submit", np.float64),
        ("dequeue", np.float64),
        ("status", object),
        ("end", np.float64),
        ("worker_id", np.int64),
        ("retries", np.int64),
    ]
)


class RequestTracer:
    """Bounded ring of request root spans + batch-level attempt records."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("trace capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._spans = np.empty(self.capacity, dtype=_SPAN)
        self._written = 0  # spans settled since the window opened
        self._attempts: deque = deque(maxlen=self.capacity)
        self.dropped_traces = 0
        self.dropped_attempts = 0
        #: Requests handed out and not yet settled (the engine binds its ledger).
        self.unsettled: Callable[[], int] = lambda: 0

    def on_settled(self, status: str, end: float, columns: Dict[str, np.ndarray]) -> None:
        """Copy the spans of rows that settled together in ``status`` at
        ``end`` into the ring, in order.

        ``columns`` maps span fields to the rows' ledger columns: request
        id, node, shard, submit, dequeue and retries, and ``worker_id`` when
        the rows completed.
        """
        count = len(columns["request_id"])
        skip = count - min(count, self.capacity)
        with self._lock:
            written = self._written
            self._written = written + count
            self.dropped_traces += max(min(count, written + count - self.capacity), 0)
            slots = np.arange(written + skip, written + count) % self.capacity
            spans = self._spans
            spans["status"][slots] = status
            spans["end"][slots] = end
            spans["worker_id"][slots] = -1
            for field, values in columns.items():
                spans[field][slots] = values[skip:]

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
        """Requests submitted and not yet terminal (read from the ledger)."""
        return self.unsettled()

    def finished(self) -> List[dict]:
        """Closed root spans, oldest first (bounded by ``capacity``)."""
        with self._lock:
            written = self._written
            slots = np.arange(max(written - self.capacity, 0), written) % self.capacity
            rows = self._spans[slots].tolist()
        spans = [dict(zip(_SPAN.names, row)) for row in rows]
        for span in spans:
            if math.isnan(span["dequeue"]):
                span["dequeue"] = None
            if span["worker_id"] < 0:
                span["worker_id"] = None
        return spans

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
        """Empty both rings (fresh measurement window).  Requests still in
        flight are traced in the new window when they settle."""
        with self._lock:
            self._written = 0
            self._attempts.clear()
            self.dropped_traces = 0
            self.dropped_attempts = 0
