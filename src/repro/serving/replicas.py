"""One replica surface, and one state machine per shard replica.

:class:`Replica` is all the engine and the :class:`ReplicaSet` call on a
replica.  A plane builds the replicas: :class:`~repro.serving.worker.LocalPlane`
in-process :class:`~repro.serving.worker.ShardWorker` objects,
:class:`~repro.serving.procplane.ProcessPlane` (``executor="process"``)
worker processes behind :class:`~repro.serving.procplane.ProcessWorkerHandle`
proxies.  No caller asks which kind it holds: in-process, the process hooks
are no-ops and ``pid``/``heartbeat_age``/``rss_bytes`` are ``None``.

Each replica is in one of three states:

``healthy``
    No failure since its last success.
``suspect``
    ``1 <= consecutive failures < failure_threshold``.  Still dispatched; a
    success returns it to ``healthy``.
``dead``
    The threshold was reached, or an operator restart is draining the
    replica.  Never dispatched.

The tick (``InferenceServer.supervise``, run with every ``poll()`` and
``drain()`` round and by the front-door pump) rebuilds every ``dead``
replica an operator restart is not holding, and the slot returns to
``healthy``.  A rebuild retires the corpse (in-flight attempts against it
raise :class:`~repro.serving.worker.WorkerRetired` into the retry path),
bumps the halo epoch (publishes racing the swap are discarded), builds a
fresh worker at ``epoch + 1``, pre-warms its cache from the halo tier,
clears the fault plan's death mark, and rewires telemetry.  Each heal
appends one ``rebuild`` (or operator ``restart``) event to a structured log.

Dispatch is round-robin over a shard's dispatchable replicas.  Replicas
already tried for a batch are skipped while an untried one exists, a lone
replica retries in place, and a shard with none fails its batch.

One lock guards replica state, the round-robin counters and the swap.  The
two calls made for every batch stay cheap: an idle tick is one attribute
read, and a success on a ``healthy`` replica takes no lock.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Protocol

__all__ = ["Replica", "ReplicaSet"]

HEALTHY, SUSPECT, DEAD = "healthy", "suspect", "dead"


class Replica(Protocol):
    """One shard replica.  It also carries ``worker_id``, ``epoch``, ``shard``,
    ``retired``, ``batches_served``, ``nodes_served``, ``peak_inflight``,
    ``cache.stats`` and ``timings``.  After ``kill`` (a SIGKILL, or a dead
    mark in-process) ``predict`` raises ``ProcessDead`` or ``ReplicaDead``."""

    @property
    def inflight(self) -> int: ...
    @property
    def pid(self) -> Optional[int]: ...
    @property
    def heartbeat_age(self) -> Optional[float]: ...
    @property
    def rss_bytes(self) -> Optional[int]: ...
    @property
    def halo_stats(self): ...
    def predict(self, global_nodes): ...
    def prewarm_from_halo(self) -> int: ...
    def retire(self) -> None: ...
    def kill(self) -> None: ...
    def close(self, timeout: float = 5.0) -> None: ...
    def maybe_heartbeat(self) -> None: ...
    def sync(self, timeout: Optional[float] = None) -> bool: ...
    def reset_stats(self) -> None: ...
    def bind_telemetry(self, stage_seconds, registry) -> None: ...


class ReplicaSet:
    """The replicas of every shard and the one state machine over them.

    ``build(shard_id, worker_id, epoch)`` makes one replica; it is called
    ``num_replicas`` times per shard here (shard-major, so shard ``s`` owns
    worker ids ``[s * num_replicas, (s + 1) * num_replicas)``) and once per
    rebuild.  ``wire(worker)``, when given, runs on every built worker
    (telemetry binding).  ``workers`` is indexed by worker id and always
    holds the live incarnation of each slot.
    """

    def __init__(
        self,
        build: Callable[[int, int, int], Replica],
        num_shards: int,
        num_replicas: int,
        failure_threshold: int = 3,
        halo_store=None,
        faults=None,
        wire: Optional[Callable[[Replica], None]] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if num_shards < 1 or num_replicas < 1:
            raise ValueError("num_shards and num_replicas must be positive")
        self.failure_threshold = failure_threshold
        self.num_replicas = num_replicas
        self.halo_store = halo_store
        self.faults = faults
        self._build = build
        self._wire = wire
        self.workers: List[Replica] = []
        for shard_id in range(num_shards):
            for _ in range(num_replicas):
                worker = build(shard_id, len(self.workers), 0)
                if wire is not None:
                    wire(worker)
                self.workers.append(worker)
        count = len(self.workers)
        self._state = [HEALTHY] * count
        self._consecutive = [0] * count
        #: Per-slot dispatch failures and deaths.  Counters, so they survive
        #: rebuilds; only reset_counters() zeroes them.
        self.failures = [0] * count
        self.deaths = [0] * count
        self._held: set = set()          # worker ids an operator restart drains
        self._round_robin = [0] * num_shards
        #: Deaths the tick has not looked at yet: the idle-tick gate.
        self._unhealed = 0
        self.restarts = 0
        self.prewarmed_rows = 0
        self._events: List[dict] = []
        self._lock = threading.Lock()
        # Optional per-replica registry counters, resolved once at bind.
        self._failure_counters: Dict[int, object] = {}
        self._death_counters: Dict[int, object] = {}
        self._restart_counters: Dict[int, object] = {}

    def bind_metrics(self, failures_family, deaths_family, restarts_family) -> None:
        """Mirror failures, deaths and rebuilds into per-replica counters."""
        with self._lock:
            for counters, family in (
                (self._failure_counters, failures_family),
                (self._death_counters, deaths_family),
                (self._restart_counters, restarts_family),
            ):
                for worker_id in range(len(self.workers)):
                    counters[worker_id] = family.labels(str(worker_id))

    # -------------------------------------------------------------- queries

    def state(self, worker_id: int) -> str:
        """``healthy``, ``suspect`` or ``dead``."""
        return self._state[worker_id]

    def group(self, shard_id: int) -> List[Replica]:
        """The live replicas of one shard, in slot order."""
        base = shard_id * self.num_replicas
        return self.workers[base: base + self.num_replicas]

    # ------------------------------------------------------------- dispatch

    def pick(self, shard_id: int, exclude: Optional[set] = None):
        """Round-robin over the shard's dispatchable replicas.

        Replicas in ``exclude`` (already tried for this batch) are skipped
        while an untried one exists.  Returns ``None`` when every replica of
        the shard is dead.
        """
        base = shard_id * self.num_replicas
        with self._lock:
            state = self._state
            pool = [
                worker_id
                for worker_id in range(base, base + self.num_replicas)
                if state[worker_id] != DEAD
            ]
            if exclude:
                pool = [worker_id for worker_id in pool if worker_id not in exclude] or pool
            if not pool:
                return None
            if len(pool) == 1:
                return self.workers[pool[0]]
            counter = self._round_robin[shard_id]
            self._round_robin[shard_id] = counter + 1
            return self.workers[pool[counter % len(pool)]]

    def record_success(self, worker) -> None:
        worker_id = worker.worker_id
        if self._state[worker_id] == HEALTHY:
            return  # the common case: nothing to reset, no lock taken
        with self._lock:
            # A dead replica stays dead (a late success from a corpse, or a
            # batch finishing while an operator restart drains the slot).
            if self._state[worker_id] == SUSPECT and self.workers[worker_id] is worker:
                self._state[worker_id] = HEALTHY
                self._consecutive[worker_id] = 0

    def record_failure(self, worker) -> None:
        worker_id = worker.worker_id
        with self._lock:
            self.failures[worker_id] += 1
            counter = self._failure_counters.get(worker_id)
            if counter is not None:
                counter.inc()
            if self._state[worker_id] == DEAD or self.workers[worker_id] is not worker:
                return  # already dead, or a retired corpse's late attempt
            self._consecutive[worker_id] += 1
            if self._consecutive[worker_id] < self.failure_threshold:
                self._state[worker_id] = SUSPECT
                return
            self._state[worker_id] = DEAD
            self.deaths[worker_id] += 1
            counter = self._death_counters.get(worker_id)
            if counter is not None:
                counter.inc()
            self._unhealed += 1

    # -------------------------------------------------------------- healing

    def tick(self, now: float) -> int:
        """Rebuild every dead replica no operator restart is holding.

        Returns the number of replicas rebuilt.  Runs on every ``poll()``,
        so when no replica died since the last tick it is one attribute
        read: no lock, no scan.
        """
        if not self._unhealed:
            return 0
        rebuilt = 0
        with self._lock:
            self._unhealed = 0
            for worker_id, state in enumerate(self._state):
                if state == DEAD and worker_id not in self._held:
                    reason = f"{self._consecutive[worker_id]} consecutive failures"
                    self._rebuild(worker_id, now, "rebuild", reason)
                    rebuilt += 1
        return rebuilt

    def hold(self, shard_id: int, slot: int):
        """Mark one slot dead for an operator restart; returns its worker.

        The tick will not rebuild a held slot: the caller drains the
        worker's in-flight batches, then calls :meth:`restart`.
        """
        if not 0 <= shard_id < len(self._round_robin):
            raise ValueError(
                f"shard_id {shard_id} out of range (0..{len(self._round_robin) - 1})"
            )
        if not 0 <= slot < self.num_replicas:
            raise ValueError(f"replica {slot} out of range (0..{self.num_replicas - 1})")
        worker_id = shard_id * self.num_replicas + slot
        with self._lock:
            self._state[worker_id] = DEAD
            self._held.add(worker_id)
            return self.workers[worker_id]

    def restart(self, shard_id: int, slot: int, now: float):
        """Rebuild a held slot and release the hold; returns the new worker."""
        worker_id = shard_id * self.num_replicas + slot
        with self._lock:
            return self._rebuild(worker_id, now, "restart", "operator restart")

    def _rebuild(self, worker_id: int, now: float, event: str, reason: str):
        """Swap one slot for a fresh worker at the next epoch (lock held)."""
        shard_id, slot = divmod(worker_id, self.num_replicas)
        corpse = self.workers[worker_id]
        corpse.retire()
        if self.halo_store is not None:
            self.halo_store.bump_epoch()
        worker = self._build(shard_id, worker_id, corpse.epoch + 1)
        prewarmed = worker.prewarm_from_halo()
        self.workers[worker_id] = worker
        self._state[worker_id] = HEALTHY
        self._consecutive[worker_id] = 0
        self._held.discard(worker_id)
        if self.faults is not None:
            self.faults.revive(worker_id)
        if self._wire is not None:
            self._wire(worker)
        self.restarts += 1
        self.prewarmed_rows += prewarmed
        counter = self._restart_counters.get(worker_id)
        if counter is not None:
            counter.inc()
        self._events.append(
            {
                "time": now,
                "event": event,
                "shard": shard_id,
                "replica": slot,
                "worker": worker_id,
                "epoch": worker.epoch,
                "reason": reason,
                "prewarmed_rows": prewarmed,
            }
        )
        return worker

    # ------------------------------------------------------------- plumbing

    def event_log(self) -> List[dict]:
        """A copy of the heal log (one event per rebuild), oldest first."""
        with self._lock:
            return [dict(event) for event in self._events]

    def last_event(self) -> Optional[dict]:
        with self._lock:
            return dict(self._events[-1]) if self._events else None

    def reset_counters(self) -> None:
        """Zero the counters and the event log.

        Replica state and consecutive-failure counts are not counters and
        stay as they are.  (The bound registry counters reset with the
        registry.)
        """
        with self._lock:
            count = len(self.workers)
            self.failures = [0] * count
            self.deaths = [0] * count
            self.restarts = 0
            self.prewarmed_rows = 0
            self._events.clear()
