"""Self-healing serving: replica supervision.

The fault plane *survives* a failing replica (breakers, failover) but never
heals it: a replica whose breaker keeps re-opening stays dark until process
restart.  :class:`ReplicaSupervisor` closes the loop.  Driven from the
scheduler/pump tick (``InferenceServer.supervise()``), it **quarantines**
every replica whose breaker is not closed (pulled from dispatch, no
cooldown re-admission) and **rebuilds** it: the old
:class:`~repro.serving.worker.ShardWorker` is retired — in-flight attempts
against the corpse raise :class:`~repro.serving.worker.WorkerRetired` and
fail cleanly into the engine's retry path — and a fresh worker is built from
the shard spec under a bumped epoch, its embedding cache pre-warmed from the
shared :class:`~repro.serving.cache.HaloStore`, then re-registered with the
:class:`~repro.serving.health.HealthTracker` and dispatch.  The same
machinery backs operator-initiated rolling restarts
(``InferenceServer.restart_replica``), which drain the replica's in-flight
batches first.  Every action lands in a structured event log (exported by
the supervisor bench as a CI artifact).

A respawned worker *process* registers through exactly this path —
quarantine, epoch bump, halo pre-warm, re-registration — with only the
worker construction swapped out.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

__all__ = ["ReplicaSupervisor"]


class ReplicaSupervisor:
    """Watches the breakers and rebuilds every replica that is not closed.

    The supervisor holds *policy* (when to quarantine, the event ledger);
    the *mechanics* of a rebuild — retire, epoch bump, fresh worker, halo
    pre-warm, re-registration — live in
    ``InferenceServer._rebuild_replica`` so the engine's locking rules stay
    in one place.  ``auto=False`` (the default) keeps ticks inert while the
    operator path (``restart_replica``) still works.
    """

    def __init__(self, server, auto: bool = False) -> None:
        self._server = server
        self.auto = bool(auto)
        self.restarts = 0
        self.quarantines = 0
        self.prewarmed_rows = 0
        self._events: List[dict] = []
        self._seen_opens = 0
        self._lock = threading.RLock()
        # Optional per-replica counter sinks (telemetry), resolved at bind.
        self._restart_counters: Dict[int, object] = {}
        self._quarantine_counters: Dict[int, object] = {}

    def bind_metrics(self, restarts_family, quarantines_family) -> None:
        """Mirror rebuilds / quarantines into per-replica registry counters."""
        with self._lock:
            worker_ids = [worker.worker_id for worker in self._server.workers]
            self._restart_counters = {
                worker_id: restarts_family.labels(str(worker_id)) for worker_id in worker_ids
            }
            self._quarantine_counters = {
                worker_id: quarantines_family.labels(str(worker_id)) for worker_id in worker_ids
            }

    # ------------------------------------------------------------------- ticks

    def tick(self, now: float) -> int:
        """Quarantine + rebuild every replica whose breaker is not closed.

        Called from ``poll()``/``drain()`` and the front-door pump.  Cheap
        when nothing changed: the health tracker's monotone ``total_opens``
        gates the scan, so an idle tick is two attribute reads.
        Returns the number of replicas rebuilt.
        """
        if not self.auto:
            return 0
        health = self._server.health
        if health.total_opens == self._seen_opens:
            return 0
        rebuilt = 0
        with self._lock:
            self._seen_opens = health.total_opens
            for shard_id, group in enumerate(self._server._replicas):
                for slot, worker in enumerate(group):
                    state = health.state(worker.worker_id, now)
                    if state in ("closed", "quarantined"):
                        continue
                    self._heal(
                        shard_id, slot, now, event="rebuild", reason=f"breaker {state}"
                    )
                    rebuilt += 1
        return rebuilt

    def restart(self, shard_id: int, slot: int, now: float):
        """Operator-initiated rebuild of one (already drained) replica slot."""
        with self._lock:
            return self._heal(shard_id, slot, now, event="restart", reason="operator restart")

    # ---------------------------------------------------------------- internals

    def _heal(self, shard_id: int, slot: int, now: float, event: str, reason: str):
        """Quarantine one slot and swap in a rebuilt worker (lock held)."""
        server = self._server
        corpse = server._replicas[shard_id][slot]
        server.health.quarantine(corpse.worker_id)
        self.quarantines += 1
        counter = self._quarantine_counters.get(corpse.worker_id)
        if counter is not None:
            counter.inc()
        self._events.append(
            {
                "time": now,
                "event": "quarantine",
                "shard": shard_id,
                "replica": slot,
                "worker": corpse.worker_id,
                "epoch": corpse.epoch,
                "reason": reason,
            }
        )
        worker, prewarmed = server._rebuild_replica(shard_id, slot)
        self.restarts += 1
        self.prewarmed_rows += prewarmed
        counter = self._restart_counters.get(worker.worker_id)
        if counter is not None:
            counter.inc()
        self._events.append(
            {
                "time": now,
                "event": event,
                "shard": shard_id,
                "replica": slot,
                "worker": worker.worker_id,
                "epoch": worker.epoch,
                "reason": reason,
                "prewarmed_rows": prewarmed,
            }
        )
        return worker

    # ----------------------------------------------------------------- plumbing

    def event_log(self) -> List[dict]:
        """A copy of the structured supervision ledger, oldest first."""
        with self._lock:
            return [dict(event) for event in self._events]

    def last_event(self) -> Optional[dict]:
        with self._lock:
            return dict(self._events[-1]) if self._events else None

    def reset_counters(self) -> None:
        """Zero counters and the event log (rebuilt workers stay in place)."""
        with self._lock:
            self.restarts = 0
            self.quarantines = 0
            self.prewarmed_rows = 0
            self._events.clear()

    def describe(self) -> str:
        mode = "auto" if self.auto else "manual"
        return f"ReplicaSupervisor({mode}, {self.restarts} restarts)"
