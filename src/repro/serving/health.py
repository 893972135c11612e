"""Per-replica health tracking: a small circuit breaker for dispatch.

Each :class:`~repro.serving.worker.ShardWorker` replica gets a
:class:`ReplicaHealth` record inside the shard's :class:`HealthTracker`.
Dispatch (`round_robin` / `least_loaded` in the engine) consults
``available(worker_id, now)`` before routing a batch, so traffic flows
around replicas that keep failing — and probes them again after a cooldown
instead of writing them off forever.

State machine (the classic three states):

``closed``
    Healthy.  Dispatchable.  A failure increments ``consecutive_failures``;
    reaching ``failure_threshold`` opens the breaker.
``open``
    Unhealthy.  Not dispatchable until ``cooldown`` clock seconds pass.
``half_open``
    Cooldown elapsed: ``available`` returns ``True`` again so exactly the
    next dispatch acts as a probe.  Success closes the breaker; failure
    re-opens it and restarts the cooldown.
``quarantined``
    Pulled from dispatch entirely by the
    :class:`~repro.serving.supervisor.ReplicaSupervisor` (or an operator
    restart): no cooldown re-admits it.  Only ``reinstate`` — called when a
    rebuilt worker re-registers — returns the slot to service, with a fresh
    record so the replacement starts with a clean breaker.

Every breaker-open *event* (first trip and each failed-probe re-open) bumps
the tracker-wide ``total_opens``, which gates the supervisor's tick.  The
per-replica ``opens`` counter keeps its original meaning — distinct
closed→open trips — so dashboards don't double-count probe churn.

All timing uses the serving plane's :class:`~repro.serving.clock.Clock`,
so recovery schedules are exact under :class:`ManualClock`.  The tracker
is thread-safe (concurrent executor records from pool threads).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence

__all__ = ["ReplicaHealth", "HealthTracker"]


@dataclass
class ReplicaHealth:
    """Mutable health record for one replica (guarded by the tracker's lock)."""

    worker_id: int
    state: str = "closed"                 # closed | open | quarantined (half-open derived)
    consecutive_failures: int = 0
    failures: int = 0
    successes: int = 0
    opened_at: float = field(default=0.0)
    opens: int = 0                        # how many times the breaker tripped
    probes: int = 0                       # half-open dispatches attempted

    def snapshot(self) -> "ReplicaHealth":
        return replace(self)


class HealthTracker:
    """Circuit breakers for a set of replicas, keyed by worker id."""

    def __init__(
        self,
        worker_ids: Sequence[int],
        failure_threshold: int = 3,
        cooldown: float = 0.05,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._lock = threading.Lock()
        self._replicas: Dict[int, ReplicaHealth] = {
            int(worker_id): ReplicaHealth(worker_id=int(worker_id)) for worker_id in worker_ids
        }
        #: Monotone count of every breaker-open event (trips and failed-probe
        #: re-opens) across all replicas.  ``reinstate`` does not roll it
        #: back, so the supervisor can use it as a cheap did-anything-change
        #: gate between ticks.
        self.total_opens = 0
        # Optional per-replica counter sinks (telemetry); resolved once so
        # record paths never pay a label lookup.
        self._failure_counters: Dict[int, object] = {}
        self._open_counters: Dict[int, object] = {}

    def bind_metrics(self, failures_family, opens_family) -> None:
        """Mirror failures / breaker opens into per-replica registry counters."""
        with self._lock:
            self._failure_counters = {
                worker_id: failures_family.labels(str(worker_id)) for worker_id in self._replicas
            }
            self._open_counters = {
                worker_id: opens_family.labels(str(worker_id)) for worker_id in self._replicas
            }

    # ------------------------------------------------------------------ state

    def state(self, worker_id: int, now: float) -> str:
        """``closed``, ``open`` or ``half_open`` as of clock time ``now``."""
        with self._lock:
            return self._state_locked(self._replicas[worker_id], now)

    def _state_locked(self, replica: ReplicaHealth, now: float) -> str:
        if replica.state == "closed":
            return "closed"
        if replica.state == "quarantined":
            return "quarantined"
        if now - replica.opened_at >= self.cooldown:
            return "half_open"
        return "open"

    def available(self, worker_id: int, now: float) -> bool:
        """May dispatch route to this replica right now (closed or probing)?"""
        return self.state(worker_id, now) in ("closed", "half_open")

    def healthy(self, worker_id: int, now: float) -> bool:
        """Strictly healthy — closed breaker, no probe credit needed."""
        return self.state(worker_id, now) == "closed"

    def partition(self, worker_ids: Sequence[int], now: float) -> "tuple[List[int], List[int]]":
        """Split ids into (closed, half-open) dispatchable groups, order kept."""
        closed: List[int] = []
        probing: List[int] = []
        with self._lock:
            for worker_id in worker_ids:
                state = self._state_locked(self._replicas[worker_id], now)
                if state == "closed":
                    closed.append(worker_id)
                elif state == "half_open":
                    probing.append(worker_id)
        return closed, probing

    # ---------------------------------------------------------------- records

    def record_success(self, worker_id: int, now: float) -> None:
        with self._lock:
            replica = self._replicas[worker_id]
            replica.successes += 1
            replica.consecutive_failures = 0
            if replica.state == "quarantined":
                # An in-flight attempt against the corpse finished: count the
                # sample but do not resurrect the slot — only reinstate() does.
                return
            if self._state_locked(replica, now) == "half_open":
                replica.probes += 1
            replica.state = "closed"

    def record_failure(self, worker_id: int, now: float) -> None:
        with self._lock:
            replica = self._replicas[worker_id]
            was_half_open = self._state_locked(replica, now) == "half_open"
            replica.failures += 1
            replica.consecutive_failures += 1
            counter = self._failure_counters.get(worker_id)
            if counter is not None:
                counter.inc()
            if replica.state == "quarantined":
                return
            if was_half_open:
                # Failed probe: re-open and restart the cooldown.
                replica.probes += 1
                replica.opened_at = now
                self.total_opens += 1
            elif replica.state == "closed" and (
                replica.consecutive_failures >= self.failure_threshold
            ):
                replica.state = "open"
                replica.opened_at = now
                replica.opens += 1
                counter = self._open_counters.get(worker_id)
                if counter is not None:
                    counter.inc()
                self.total_opens += 1

    # ------------------------------------------------------------- supervision

    def quarantine(self, worker_id: int) -> None:
        """Pull a replica from dispatch until it is explicitly reinstated."""
        with self._lock:
            self._replicas[worker_id].state = "quarantined"

    def reinstate(self, worker_id: int) -> None:
        """Re-register a rebuilt replica under a clean breaker record."""
        with self._lock:
            self._replicas[worker_id] = ReplicaHealth(worker_id=int(worker_id))

    # --------------------------------------------------------------- plumbing

    def snapshot(self, worker_id: int) -> ReplicaHealth:
        with self._lock:
            return self._replicas[worker_id].snapshot()

    def reset(self) -> None:
        """Back to pristine: records, the open ledger *and* bound metrics.

        The bound per-replica counters are part of the breaker's externally
        visible state — leaving them standing after a reset would skew
        post-restart dashboards against a tracker that claims zero failures.
        """
        with self._lock:
            for worker_id in list(self._replicas):
                self._replicas[worker_id] = ReplicaHealth(worker_id=worker_id)
            self.total_opens = 0
            for counter in self._failure_counters.values():
                counter.reset()
            for counter in self._open_counters.values():
                counter.reset()
