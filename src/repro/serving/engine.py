"""The online inference server: routing, micro-batching, sharded execution.

Request lifecycle::

    submit(node, request_class=...) ──▶ RequestHandle (future: result(timeout=),
                     │  done(), typed terminal exceptions; awaitable under
                     │  ingress="thread", where a FrontDoor pump thread
                     │  drives the flush loop so arrivals land mid-round)
                     ▼
                     admission control (bounded per-shard queues:
                     │  reject / shed (lightest class first) / block)
                     ▼
                     route by node id to the owning shard's queue
                     │  (MicroBatcher: flush at max_batch_size, max_delay,
                     │   or the oldest request's deadline)
                     ▼
    Scheduler ──────▶ one flush task per due shard, dispatched through a
                     │  FlushExecutor (SerialExecutor inline, or
                     │  ConcurrentExecutor over a thread pool)
                     ▼
    InferenceRequest.status ∈ {completed, rejected, shed, expired, failed}
    ServerStats (p50/p95/p99, hit rate, per-shard load, overload counters)

The :class:`~repro.serving.scheduler.Scheduler` owns the flush loop.  By
default a ``submit``/``submit_many`` window polls after its first admitted
request, then only when some shard's flush time (size, delay or deadline)
has come, and once before returning — so size-triggered batches flush
immediately, and the only polls skipped are those that would flush nothing.
Open-loop callers can set ``server.scheduler.flush_on_submit = False`` and
call ``poll()`` themselves.
All timing flows through a :class:`~repro.serving.clock.Clock`; with the
default ``SerialExecutor`` plus a ``ManualClock`` every run is bit-for-bit
deterministic, and the served predictions are identical
to offline full-graph evaluation (``evaluate_accuracy(mode="full")``) under
*either* executor.

Fault tolerance (the no-lost-request contract): a flush round is crash-safe.
A replica that raises — for real, or through an injected
:class:`~repro.serving.faults.FaultPlan` — fails only its own batch's
*attempt*: the batch retries at once on a sibling replica (requests whose
deadline has passed expire instead).  A
:class:`~repro.serving.replicas.ReplicaSet` owns the replicas and their
healthy → suspect → dead state machine: it picks the replica for every
attempt, never dispatches a dead one, and rebuilds dead replicas on the next
tick.  A shard with zero
dispatchable replicas fails its batch.  Whatever the fault schedule, every
submitted request terminates in exactly one terminal state and the other
shards' results commit.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import threading
import time
from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.graph import Graph
from ..models.base import GNNModel
from ..tensor.tensor import no_grad
from .batcher import (
    COMPLETED,
    EXPIRED,
    FAILED,
    REJECTED,
    SHED,
    InferenceRequest,
    MicroBatcher,
)
from ..telemetry import Telemetry
from .cache import CacheStats, HaloStore
from .clock import Clock, SystemClock
from .config import ServingConfig
from .executor import make_executor
from .faults import InjectedFault, ReplicaDead, ReplicaHung
from .frontdoor import FrontDoor, RequestHandle
from .metrics import ServingMetrics
from .procplane import ProcessPlane
from .replicas import Replica, ReplicaSet
from .scheduler import DrainTimeout, Scheduler
from .shard import GraphShard, build_shards
from .stats import ServerStats, WorkerLoad
from .timing import merge_stage_totals
from .worker import LocalPlane

__all__ = ["ServingConfig", "InferenceServer", "RequestHandle", "DrainTimeout"]


class InferenceServer:
    """Serves per-node prediction requests for one trained model + graph."""

    def __init__(
        self,
        model: GNNModel,
        graph: Graph,
        config: Optional[ServingConfig] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.model = model
        self.graph = graph
        self.config = config if config is not None else ServingConfig()
        self.clock = clock if clock is not None else SystemClock()
        # Exact serving needs each core node's full K-hop receptive field in
        # its shard; a deeper halo would only add work.
        self.shards: List[GraphShard] = build_shards(
            graph,
            self.config.num_shards,
            model.num_layers,
            method=self.config.partition_method,
            seed=self.config.seed,
        )
        self._owner = np.full(graph.num_nodes, -1, dtype=np.int64)
        for shard in self.shards:
            self._owner[shard.core_nodes] = shard.part_id

        # The plane builds the halo store and every replica: in-process
        # ShardWorkers, or (executor="process") worker processes over shard
        # slabs in shared memory.  The engine never asks which.
        self.plane = (
            ProcessPlane(graph, self.shards, model, call_timeout=self.config.process_call_timeout)
            if self.config.executor == "process"
            else LocalPlane(graph, self.shards, model)
        )

        self.halo_store = self._build_halo_store()
        full_degrees = graph.degrees() if self.halo_store is not None else None
        # Shard-local masks of rows whose full neighbour list is inside the
        # shard (the subgraph relabelling is monotone, so induced row i is
        # global node shard.nodes[i]).  Only those rows may be published to
        # the shared halo tier.  Kept for rebuilds: a rebuilt replica needs
        # the same mask its corpse was built with.
        self._publish_masks = [
            (
                shard.graph.degrees() == full_degrees[shard.nodes]
                if full_degrees is not None
                else None
            )
            for shard in self.shards
        ]

        # Telemetry plane: every counter ServerStats reports lives in the
        # registry (ServerStats is a *view* over it); the tracer (telemetry
        # mode "trace") records per-request root spans and batch-level
        # dispatch attempts.  With telemetry "off" the registry is null and
        # the tracer is None, so the hot path degrades to no-op calls and
        # `is not None` checks.
        self.telemetry = Telemetry(self.config.telemetry, self.config.trace_capacity)
        self.tracer = self.telemetry.tracer
        self._metrics = ServingMetrics(
            self.telemetry.registry,
            len(self.shards),
            range(len(self.shards) * self.config.num_replicas),
            class_names=[name for name, _ in self.config.request_classes],
        )

        self.faults = self.config.fault_plan
        self.replicas = ReplicaSet(
            self._build_worker,
            len(self.shards),
            self.config.num_replicas,
            failure_threshold=self.config.health_failure_threshold,
            halo_store=self.halo_store,
            faults=self.faults,
            wire=self._wire_telemetry if self.telemetry.enabled else None,
        )
        #: Worker id -> live replica (the ReplicaSet's list, swapped in place
        #: by rebuilds).
        self.workers: List[Replica] = self.replicas.workers

        self.batcher = MicroBatcher(
            len(self.shards),
            self.config.max_batch_size,
            self.config.max_delay,
            max_queue_depth=self.config.max_queue_depth,
        )
        self.executor = make_executor(self.config.executor, len(self.workers))
        #: class name -> admission weight (the config normalises the spec).
        self._class_weights = self.config.class_weights()
        self.scheduler = Scheduler(
            self.batcher,
            self.clock,
            self._flush,
            self.executor,
            # With the background pump the frontdoor thread owns polling;
            # submit() just enqueues and wakes it.
            flush_on_submit=self.config.flush_on_submit and self.config.ingress == "sync",
            supervise=self.supervise,
        )

        # Engine-wide lock: guards queue admission and the stats
        # accumulators.  Flush tasks run prediction *outside* it.
        self._lock = threading.RLock()
        # Capacity condition over the same lock: blocked submitters
        # (overload_policy="block") wait here and are woken when a flush
        # frees queue space, when an in-flight flush settles, or on shutdown.
        self._capacity = threading.Condition(self._lock)
        self._inflight_flushes = 0
        self._serving_depth = 0
        # itertools.count: next() is atomic, so concurrent submitters can
        # never share a request id.
        self._request_ids = itertools.count()
        # Completed-request latencies as packed doubles: 8 bytes a request
        # where a list of floats costs 32.
        self._latencies = array("d")
        self._batch_sizes: List[int] = []
        self._first_enqueue: Optional[float] = None
        self._last_completion: Optional[float] = None
        self._closed = False

        if self.telemetry.enabled:
            self.batcher.bind_metrics(self._metrics.flushes)
            self.scheduler.bind_metrics(self._metrics.flush_rounds)
            self.replicas.bind_metrics(
                self._metrics.replica_failures,
                self._metrics.replica_deaths,
                self._metrics.supervisor_restarts,
            )
            if self.faults is not None:
                self.faults.bind_metrics(self._metrics.faults)
            self.telemetry.add_collector(self._collect_gauges)

        # Background ingress pump (ingress="thread"): started last so it can
        # never observe a half-built server.
        self.frontdoor: Optional[FrontDoor] = None
        if self.config.ingress == "thread":
            self.frontdoor = FrontDoor(self)
            self.frontdoor.start()

    def _build_halo_store(self) -> Optional[HaloStore]:
        """The shared boundary-embedding tier, when the config and topology
        allow one.

        Eligible nodes are those held by two or more *shards* (their layer
        values would otherwise be recomputed on each side of the cut); with
        replicated shards every held node is eligible, since a shard's
        replicas keep independent embedding caches but compute identical
        rows.
        """
        if not self.config.halo_tier or len(self.shards) * self.config.num_replicas < 2:
            return None
        counts = np.zeros(self.graph.num_nodes, dtype=np.int64)
        for shard in self.shards:
            counts[shard.nodes] += 1
        threshold = 1 if self.config.num_replicas > 1 else 2
        shared = np.where(counts >= threshold)[0]
        if not len(shared):
            return None
        return self.plane.build_halo_store(shared)

    def _build_worker(self, shard_id: int, worker_id: int, epoch: int) -> Replica:
        """One replica from the shard spec (the :class:`ReplicaSet` factory:
        initial build *and* rebuilds go through here, so a rebuilt worker is
        constructed exactly like its corpse was — same shard, same publish
        mask — plus a bumped epoch)."""
        return self.plane.spawn_worker(
            shard_id, worker_id, epoch, self._publish_masks[shard_id], self.config.cache_capacity
        )

    def _wire_telemetry(self, worker: Replica) -> None:
        """Bind one replica to the stage histograms and the fleet registry."""
        worker.bind_telemetry(self._metrics.stage_seconds, self.telemetry.registry)

    # -- self-healing ------------------------------------------------------------

    def supervise(self) -> int:
        """One healing tick: rebuild every dead replica (see
        :meth:`ReplicaSet.tick`); returns how many were rebuilt.

        Wired into :meth:`poll` (and hence the front-door pump and every
        ``drain`` round), so healing advances with the flush loop and needs
        no extra thread.  The plane heartbeats its replicas first (worker
        processes only), so a crashed process is found even between
        dispatches.
        """
        self.plane.heartbeat(self.workers)
        return self.replicas.tick(self.clock.now())

    def restart_replica(self, shard_id: int, replica: int = 0) -> Replica:
        """Operator-initiated rolling restart of one replica slot.

        The slot is marked dead first (no new dispatches), then the call
        waits out any batch the replica is currently serving before it is
        rebuilt — a rolling restart never abandons an in-flight batch.
        Returns the replacement worker.
        """
        worker = self.replicas.hold(shard_id, replica)
        with self._capacity:
            # Drain the replica's in-flight batches: flush tasks bump the
            # worker's inflight gauge around predict() and notify _capacity
            # when a flush settles.
            while worker.inflight > 0:
                self._capacity.wait(timeout=self._BLOCK_WAIT_TIMEOUT)
        return self.replicas.restart(shard_id, replica, self.clock.now())

    # -- request intake ----------------------------------------------------------

    @property
    def has_background_ingress(self) -> bool:
        """Is a FrontDoor pump running (so ``handle.result()`` may block)?"""
        return self.frontdoor is not None and self.frontdoor.running

    def submit(
        self,
        node: int,
        timeout: Optional[float] = None,
        request_class: Optional[str] = None,
    ) -> RequestHandle:
        """Enqueue one prediction request; returns a :class:`RequestHandle`.

        ``timeout`` (clock seconds, defaulting to ``config.default_timeout``)
        sets the request's deadline: if it is still queued when its deadline
        passes it terminates as ``expired`` instead of being executed.
        ``request_class`` picks the admission class (``config.default_class``
        when omitted) — heavier classes are batched first and shed last.

        Under admission control the returned handle may already be terminal
        (``status == "rejected"``); ``handle.result()`` then raises the
        mapped :class:`~repro.serving.frontdoor.RequestError`.  With
        ``ingress="sync"`` due batches flush inline before this returns;
        with ``ingress="thread"`` the background pump is woken instead and
        ``handle.result()`` waits for it.
        """
        return self.submit_many([node], timeout, request_class)[0]

    def submit_many(
        self,
        nodes: Sequence[int],
        timeout: Optional[float] = None,
        request_class: Optional[str] = None,
    ) -> List[RequestHandle]:
        """Enqueue a window of requests, one handle per node, in order.

        The window is validated as a whole before anything is admitted: a
        bad node, timeout or class raises and leaves every queue untouched.
        Each request is then admitted like a :meth:`submit`.  The flush loop
        runs after the first admission, then after an admission only when
        some shard's flush time (size, delay or deadline) has come, and once
        before returning — skipping only rounds that would flush nothing, so
        the batches are exactly those of one ``submit`` per node.
        """
        if self._closed:
            raise RuntimeError("server is shut down")
        nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
        num_nodes = self.graph.num_nodes
        if len(nodes) and (nodes.min() < 0 or nodes.max() >= num_nodes):
            node = int(nodes[(nodes < 0) | (nodes >= num_nodes)][0])
            raise ValueError(f"node {node} is outside the graph (0..{num_nodes - 1})")
        if timeout is None:
            timeout = self.config.default_timeout
        elif timeout <= 0:
            raise ValueError("timeout must be positive (or None for no deadline)")
        class_name = self.config.default_class if request_class is None else str(request_class)
        weight = self._class_weights.get(class_name)
        if weight is None:
            raise ValueError(
                f"unknown request_class {class_name!r}; configured classes: "
                f"{[name for name, _ in self.config.request_classes]}"
            )

        # How an admission reaches the flush loop: wake the pump, run a round
        # inline, or (flush_on_submit off) nothing.
        if self.frontdoor is not None:
            kick = self.frontdoor.notify
        elif self.scheduler.flush_on_submit:
            kick = self.scheduler.poll
        else:
            kick = None
        clock = self.clock
        tracer = self.tracer
        due_at = self.batcher.due_at
        handles: List[RequestHandle] = []
        # Earliest time any shard must flush, as of the last kick and the
        # admissions since; the first admission always kicks.
        next_due = -math.inf
        stale = False  # admissions since the last kick
        for node, shard_id in zip(nodes.tolist(), self._owner[nodes].tolist()):
            now = clock.now()
            request = InferenceRequest(
                request_id=next(self._request_ids),
                node=node,
                shard_id=shard_id,
                enqueue_time=now,
                deadline=None if timeout is None else now + timeout,
                request_class=class_name,
                weight=weight,
            )
            if self._first_enqueue is None:
                self._first_enqueue = now
            if tracer is not None:
                # Before admission: rejected requests get a root span too.
                tracer.on_submit(request.request_id, node, shard_id, now)
            if self._admit(request) and kick is not None:
                # An admission only moves its own shard's flush time, so
                # skipping the kick while nothing is due skips an empty round.
                due = due_at(shard_id)
                if due < next_due:
                    next_due = due
                if clock.now() >= next_due:
                    kick()
                    next_due, stale = self.batcher.next_due(), False
                else:
                    stale = True
            handles.append(RequestHandle(request, self))
        if stale:
            kick()
        return handles

    #: Lost-wakeup safety net for blocked submitters, in wall seconds.  Every
    #: capacity transition notifies the condition, so the timeout should never
    #: be the thing that wakes a waiter — it only bounds the damage if a future
    #: change forgets a notify.
    _BLOCK_WAIT_TIMEOUT = 0.05

    def _completion_event(self, request: InferenceRequest) -> Optional[threading.Event]:
        """The event a waiter blocks on, created on first use; None once the
        request is terminal.

        Created under the engine lock, which every terminal transition also
        holds: either the event exists before ``_finish`` (which sets it) or
        the waiter sees the terminal status — no wakeup can be lost.
        """
        with self._lock:
            if request.done:
                return None
            if request._event is None:
                request._event = threading.Event()
            return request._event

    def _terminal(self, requests: Sequence[InferenceRequest], status: str, now: float) -> None:
        """Requests reach one terminal state: root spans + ledger counters.

        Callers hold the engine lock (so a waiter's event cannot be created
        mid-transition); ``request._finish`` enforces exactly-once.  The
        counters move once per shard and once per class present.
        """
        tracer = self.tracer
        shards: Dict[int, int] = {}
        classes: Dict[str, int] = {}
        for request in requests:
            request._finish(status, now)
            shards[request.shard_id] = shards.get(request.shard_id, 0) + 1
            classes[request.request_class] = classes.get(request.request_class, 0) + 1
            if tracer is not None:
                tracer.on_terminal(
                    request.request_id,
                    status,
                    now,
                    worker_id=request.worker_id,
                    retries=request.retries,
                )
        counters = self._metrics.requests[status]
        for shard_id, count in shards.items():
            counters[shard_id].inc(count)
        for class_name, count in classes.items():
            class_children = self._metrics.class_requests.get(class_name)
            if class_children is not None:
                class_children[status].inc(count)

    def _admit(self, request: InferenceRequest) -> bool:
        """Apply the overload policy; returns False when ``request`` was rejected.

        The full-check and the reject/shed/enqueue that follows it run under
        one lock hold, so concurrent submitters cannot both see room and push
        a queue past ``max_queue_depth``.
        """
        shard_id = request.shard_id
        policy = self.config.overload_policy
        with self._lock:
            if self._closed:
                # Shut down mid-window: shutdown's final drain may already
                # have run, so nothing may be queued any more.
                self._terminal([request], REJECTED, self.clock.now())
                return False
            if not self.batcher.is_full(shard_id):
                self.batcher.enqueue(request)
                return True
            if policy == "reject":
                self._terminal([request], REJECTED, self.clock.now())
                return False
            if policy == "shed_oldest":
                victim = self.batcher.shed_victim(shard_id)
                self._terminal([victim], SHED, self.clock.now())
                self.batcher.enqueue(request)
                return True
        # block: backpressure — wait for room (or make it ourselves), outside
        # this lock hold.
        return self._admit_blocking(request)

    def _admit_blocking(self, request: InferenceRequest) -> bool:
        """``overload_policy="block"``: a real wait, not a busy spin.

        While another thread has a flush in flight the submitter parks on the
        capacity condition and is woken when queue depth drops (or the server
        shuts down, which rejects the request deterministically).  When *no*
        flush is in flight anywhere — the single-threaded case — waiting
        would deadlock, so the submitter force-flushes the shard itself
        (counted separately, so tests can assert no busy-spin happened).
        """
        shard_id = request.shard_id
        while True:
            flush_self = False
            with self._capacity:
                if self._closed:
                    self._terminal([request], REJECTED, self.clock.now())
                    return False
                if not self.batcher.is_full(shard_id):
                    self.batcher.enqueue(request)
                    return True
                if self._inflight_flushes > 0:
                    self._metrics.block_waits.inc()
                    self._capacity.wait(timeout=self._BLOCK_WAIT_TIMEOUT)
                else:
                    self._metrics.block_self_flushes.inc()
                    flush_self = True
            if flush_self:
                self._flush(shard_id, forced=True)

    # -- execution ---------------------------------------------------------------

    def poll(self) -> int:
        """Flush every queue that is due at the current clock time."""
        self.supervise()
        return self.scheduler.poll()

    def drain(self, timeout: Optional[float] = None) -> int:
        """Force-flush until no request is pending (end of a request stream).

        Every request submitted before this call is terminal when it
        returns.  With a background ingress pump the drain must also wait
        out in-flight flushes: ``batcher.pending`` only counts *queued*
        requests, so a batch the pump already popped but has not finished
        serving would otherwise race past the check.

        ``timeout`` (wall seconds) bounds the whole call: past it a
        :class:`~repro.serving.scheduler.DrainTimeout` is raised carrying a
        ledger snapshot (queue depths, in-flight flushes, terminal counts)
        so a wedged drain reports *what* is stuck.  The server stays usable
        — pending requests remain queued for a later ``drain()``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            self.supervise()
            flushed = self.scheduler.drain(deadline)
            if not self.has_background_ingress:
                return flushed
            while True:
                # _capacity shares the engine lock, and the pump pops a batch
                # and bumps _inflight_flushes inside one locked region — so
                # observing "nothing in flight and nothing queued" here really
                # is idle.
                with self._capacity:
                    while self._inflight_flushes > 0:
                        if deadline is not None and time.monotonic() >= deadline:
                            raise DrainTimeout(
                                "drain deadline passed with a flush still in flight"
                            )
                        self._capacity.wait(timeout=self._BLOCK_WAIT_TIMEOUT)
                    if not self.batcher.pending:
                        return flushed
                self.supervise()
                flushed += self.scheduler.drain(deadline)
        except DrainTimeout as exc:
            raise DrainTimeout(str(exc), snapshot=self._ledger_snapshot()) from None

    def _ledger_snapshot(self) -> dict:
        """Point-in-time view of where every request stands (DrainTimeout
        payload)."""
        with self._lock:
            metrics = self._metrics
            return {
                "pending": self.batcher.pending,
                "queue_depths": {
                    shard_id: self.batcher.queue_depth(shard_id)
                    for shard_id in range(len(self.shards))
                },
                "inflight_flushes": self._inflight_flushes,
                "terminal": {
                    status: metrics.status_total(status)
                    for status in (COMPLETED, REJECTED, SHED, EXPIRED, FAILED)
                },
            }

    def predict(self, nodes: Sequence[int]) -> np.ndarray:
        """Synchronous convenience: submit ``nodes``, drain, return predictions.

        Raises when admission control turned any of the requests away — use
        ``submit_many``/``drain`` and inspect per-request ``status`` when
        serving with bounded queues.
        """
        requests = self.submit_many(nodes)
        self.drain()
        incomplete = sum(1 for request in requests if not request.completed)
        if incomplete:
            raise RuntimeError(
                f"{incomplete} of {len(requests)} requests did not complete "
                "(rejected/shed/expired by admission control, or failed); "
                "use submit_many() + drain() and check request.status"
            )
        return np.array([request.result() for request in requests], dtype=np.int64)

    def shutdown(self) -> None:
        """Deterministic teardown: every in-flight request reaches a terminal
        state before executor threads are released (idempotent).

        Order matters: the server closes *first* (new submits raise; the
        rest of a window mid-admission and blocked submitters reject), then
        pending queues drain, then the call waits for any flush still in
        flight on another thread to settle — so a shutdown racing a
        mid-flight round can never leave a request non-terminal — and drains
        once more to catch requests that were admitted while the round was
        settling.
        """
        if self._closed:
            return
        with self._capacity:
            self._closed = True
            self._capacity.notify_all()  # blocked submitters wake up and reject
        if self.frontdoor is not None:
            # Quiesce the ingress pump before draining so the final drains
            # cannot race a background poll.
            self.frontdoor.stop()
        self.drain()
        with self._capacity:
            while self._inflight_flushes > 0:
                self._capacity.wait(timeout=self._BLOCK_WAIT_TIMEOUT)
        self.drain()
        self.scheduler.shutdown()
        # Final stats are pulled while the pipes still work, then each close
        # escalates shutdown message → SIGTERM → SIGKILL, so a wedged worker
        # process cannot hang shutdown (no-ops for in-process replicas).
        for worker in self.workers:
            worker.sync(timeout=1.0)
            worker.close(timeout=5.0)
        self.plane.shutdown()

    def __enter__(self) -> "InferenceServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    @contextlib.contextmanager
    def _serving_mode(self) -> Iterator[None]:
        """Hold the model in eval/no-grad for a whole flush round.

        The save/restore of ``model.training`` happens once, in the driving
        thread, so concurrent flush tasks never observe (or cause) a
        transition mid-batch.
        """
        with self._lock:
            first = self._serving_depth == 0
            self._serving_depth += 1
            if first:
                self._was_training = self.model.training
                self.model.eval()
        try:
            with no_grad():
                yield
        finally:
            with self._lock:
                self._serving_depth -= 1
                if self._serving_depth == 0:
                    self.model.train(self._was_training)

    def _flush(self, shard_id: int, forced: bool = False) -> int:
        """Pop and serve one batch; crash-safe (never raises on worker failure).

        Whatever happens inside — injected faults, a replica raising mid
        batch, every replica dead — the popped requests all reach a
        terminal state here, so a failure on one shard can never take down a
        flush round's other shards or strand a request in ``pending``.
        """
        with self._lock:
            batch = self.batcher.pop_batch(shard_id, forced=forced)
            if not batch:
                return 0
            self._capacity.notify_all()  # queue depth dropped: wake blocked submitters
            now = self.clock.now()
            if self.telemetry.enabled:
                waits = [now - request.enqueue_time for request in batch]
                self._metrics.queue_wait[shard_id].observe_many(waits)
                waits_by_class: Dict[str, List[float]] = {}
                for request, wait in zip(batch, waits):
                    waits_by_class.setdefault(request.request_class, []).append(wait)
                for class_name, class_waits in waits_by_class.items():
                    class_wait = self._metrics.class_queue_wait.get(class_name)
                    if class_wait is not None:
                        class_wait.observe_many(class_waits)
                if self.tracer is not None:
                    self.tracer.on_dequeue(
                        [request.request_id for request in batch], now
                    )
            live: List[InferenceRequest] = []
            expired: List[InferenceRequest] = []
            for request in batch:
                if request.deadline is not None and now >= request.deadline:
                    expired.append(request)
                else:
                    live.append(request)
            self._terminal(expired, EXPIRED, now)
            if not live:
                return 1
            self._inflight_flushes += 1
        try:
            self._serve_batch(shard_id, live)
        except BaseException:
            # Retry/failover handles worker errors; only non-Exception escapes
            # (KeyboardInterrupt and kin) reach here.  Even then, nothing may
            # stay stranded in "pending".
            with self._lock:
                now = self.clock.now()
                self._terminal([r for r in live if not r.done], FAILED, now)
            raise
        finally:
            with self._lock:
                self._inflight_flushes -= 1
                self._capacity.notify_all()  # unblock waiters and shutdown()
        return 1

    def _serve_batch(self, shard_id: int, live: List[InferenceRequest]) -> None:
        """Serve a dequeued batch with failover.

        Attempt loop: the :class:`ReplicaSet` picks a dispatchable replica
        (already-failed replicas excluded while siblings remain) and it
        serves.  A failed attempt retries at once, up to
        ``config.max_retries`` times; requests whose deadline has passed by
        then expire instead.  When no replica is dispatchable the batch
        fails.
        """
        tried: set = set()
        attempt = 0
        tracer = self.tracer
        while live:
            worker = self.replicas.pick(shard_id, exclude=tried)
            if worker is None:
                self._serve_degraded(shard_id, live)
                return
            nodes = np.array([request.node for request in live], dtype=np.int64)
            start = self.clock.now()
            record = None
            fault_info: dict = {}
            if tracer is not None:
                # One attempt record per batch dispatch — the granularity at
                # which the fault plan and the ReplicaSet are consulted, so
                # failed attempt records and per-replica failure counts
                # match one for one.
                record = tracer.attempt(
                    shard_id,
                    worker.worker_id,
                    [request.request_id for request in live],
                    attempt,
                    self.replicas.state(worker.worker_id),
                    start,
                )
                stages_before = worker.timings.snapshot()
            try:
                predictions = self._attempt(worker, nodes, fault_info)
            except Exception as exc:
                now = self.clock.now()
                self.replicas.record_failure(worker)
                if self.halo_store is not None:
                    # Epoch guard: in-flight publishes that raced with this
                    # failure (possibly from the dying replica itself) are
                    # discarded rather than trusted.
                    self.halo_store.bump_epoch()
                tried.add(worker.worker_id)
                attempt += 1
                if record is not None:
                    tracer.end_attempt(
                        record, now, "error", fault=fault_info.get("kind", type(exc).__name__)
                    )
                survivors: List[InferenceRequest] = []
                expired: List[InferenceRequest] = []
                with self._lock:
                    self._metrics.worker_failures.inc()
                    if attempt > self.config.max_retries:
                        self._terminal(live, FAILED, now)
                        return
                    self._metrics.retry_attempts.inc()
                    for request in live:
                        if request.deadline is not None and request.deadline <= now:
                            expired.append(request)
                        else:
                            request.retries += 1
                            survivors.append(request)
                    self._terminal(expired, EXPIRED, now)
                    if survivors:
                        self._metrics.retries[shard_id].inc(len(survivors))
                live = survivors
                continue

            end = self.clock.now()
            self.replicas.record_success(worker)
            if record is not None:
                after = worker.timings.snapshot()
                stages = {
                    name: after[name] - stages_before.get(name, 0.0)
                    for name in after
                }
                tracer.end_attempt(
                    record, end, "ok", fault=fault_info.get("kind"), stages=stages
                )
            with self._lock:
                now = self.clock.now()
                if tried and worker.worker_id not in tried:
                    self._metrics.failovers[shard_id].inc()
                size, worker_id = len(live), worker.worker_id
                for request, prediction in zip(live, np.asarray(predictions).tolist()):
                    request.prediction = prediction
                    request.worker_id = worker_id
                    request.batch_size = size
                self._terminal(live, COMPLETED, now)
                latencies = [now - request.enqueue_time for request in live]
                self._latencies.extend(latencies)
                self._batch_sizes.append(size)
                if self.telemetry.enabled:
                    self._metrics.latency[shard_id].observe_many(latencies)
                    self._metrics.batch_size[shard_id].observe(size)
                self._last_completion = now
            return

    def _attempt(
        self,
        worker: Replica,
        nodes: np.ndarray,
        fault_info: dict,
    ) -> np.ndarray:
        """One dispatch to one replica, with the fault plan consulted first.

        This is the only place the plan is consulted — exactly once per
        dispatch, which keeps seeded fault sequences deterministic.
        ``fault_info`` surfaces the injected-fault kind to the tracer: it
        gains a ``"kind"`` entry whenever the plan fired.
        """
        decision = (
            self.faults.decide(worker.worker_id, self.clock.now())
            if self.faults is not None
            else None
        )
        if decision is not None:
            fault_info["kind"] = decision.kind
            if decision.kind == "raise":
                raise InjectedFault(
                    f"injected failure on worker {worker.worker_id}"
                )
            if decision.kind == "die":
                # Permanent: the plan keeps this worker dead until the
                # replica is rebuilt (FaultPlan.revive).
                raise ReplicaDead(
                    f"worker {worker.worker_id} died (killed by the fault plan)"
                )
            if decision.kind == "hang":
                # The dispatch burns clock time past any sane deadline before
                # it is declared dead (a timeout, simulated).
                self.clock.sleep(decision.seconds)
                raise ReplicaHung(
                    f"worker {worker.worker_id} hung for "
                    f"{decision.seconds * 1e3:.1f} ms"
                )
            # "kill": a real SIGKILL for a worker process, a dead mark for an
            # in-process replica; the dispatch below then raises the
            # replica's own death error (ProcessDead or ReplicaDead).
            worker.kill()
        with self._serving_mode():
            return worker.predict(nodes)

    def _serve_degraded(self, shard_id: int, live: List[InferenceRequest]) -> None:
        """Zero dispatchable replicas: fail every request of the batch."""
        with self._lock:
            now = self.clock.now()
            self._terminal(live, FAILED, now)
        if self.tracer is not None:
            record = self.tracer.attempt(
                shard_id,
                None,
                [request.request_id for request in live],
                0,
                None,
                now,
            )
            self.tracer.end_attempt(record, now, "degraded")

    # -- introspection -----------------------------------------------------------

    def _collect_gauges(self) -> None:
        """Pull-hook run before every telemetry export.

        Cache/halo counters and executor state live in their own
        structs on the hot path; exports mirror them into gauges here
        instead of paying per-event metric increments.
        """
        metrics = self._metrics
        cache, halo = self._fleet_counters()
        for event, value in cache.as_dict().items():
            metrics.cache_gauge.labels(event).set(value)
        if self.halo_store is not None:
            for event, value in halo.as_dict().items():
                metrics.halo_gauge.labels(event).set(value)
        metrics.executor_peak.set(self.executor.peak_concurrency)
        for shard_id in range(len(self.shards)):
            metrics.queue_depth.labels(str(shard_id)).set(
                self.batcher.queue_depth(shard_id)
            )

    @property
    def swept_segments(self) -> tuple:
        """Stale shared-memory segments reclaimed at this server's startup
        (names of segments whose creator process was dead; empty unless
        ``executor="process"``)."""
        return tuple(self.plane.swept_stale)

    def _fleet_counters(self) -> Tuple[CacheStats, CacheStats]:
        """The fleet's merged ``(cache, halo)`` counters after a sync.  The
        halo store counts in-process gathers; each worker process its own."""
        cache = halo = CacheStats()
        for worker in self.workers:
            worker.sync(timeout=1.0)
            cache = cache.merge(worker.cache.stats)
            halo = halo.merge(worker.halo_stats)
        if self.halo_store is not None:
            halo = halo.merge(self.halo_store.stats)
        return cache, halo

    def stats(self) -> ServerStats:
        cache, halo = self._fleet_counters()
        replicas = self.replicas
        loads = []
        for worker in self.workers:
            loads.append(
                WorkerLoad(
                    worker_id=worker.worker_id,
                    shard_id=worker.shard.part_id,
                    batches=worker.batches_served,
                    nodes=worker.nodes_served,
                    core_nodes=worker.shard.num_core,
                    halo_nodes=worker.shard.num_halo,
                    peak_concurrency=worker.peak_inflight,
                    state=replicas.state(worker.worker_id),
                    failures=replicas.failures[worker.worker_id],
                    deaths=replicas.deaths[worker.worker_id],
                    epoch=worker.epoch,
                    pid=worker.pid,
                    heartbeat_age=worker.heartbeat_age,
                    rss_bytes=worker.rss_bytes,
                )
            )
        loads = tuple(loads)
        if self._first_enqueue is not None and self._last_completion is not None:
            duration = self._last_completion - self._first_enqueue
        else:
            duration = 0.0
        # ServerStats is a *view over the registry*: every ledger counter
        # below reads the metric children the serving paths incremented (all
        # zero under telemetry="off").  Healing numbers come from the
        # ReplicaSet instead, so they survive telemetry="off" (the bench
        # gates assert on them exactly).
        metrics = self._metrics
        with self._lock:
            # Copied under the lock that extend() holds: an array exporting
            # its buffer to a copy in flight cannot be resized.
            latencies = np.array(self._latencies, dtype=np.float64)
            batch_sizes = np.array(self._batch_sizes, dtype=np.int64)
        return ServerStats(
            stage_seconds=merge_stage_totals(worker.timings for worker in self.workers),
            completed_requests=metrics.status_total(COMPLETED),
            latencies=latencies,
            batch_sizes=batch_sizes,
            cache=cache,
            workers=loads,
            size_flushes=self.batcher.size_flushes,
            delay_flushes=self.batcher.delay_flushes,
            forced_flushes=self.batcher.forced_flushes,
            duration=duration,
            executor=self.config.executor,
            peak_concurrency=self.executor.peak_concurrency,
            rejected_requests=metrics.status_total(REJECTED),
            shed_requests=metrics.status_total(SHED),
            expired_requests=metrics.status_total(EXPIRED),
            failed_requests=metrics.status_total(FAILED),
            retried_requests=metrics.retried_total(),
            failovers=metrics.failover_total(),
            worker_failures=metrics.worker_failures.value,
            injected_faults=self.faults.total_injected if self.faults is not None else 0,
            block_waits=metrics.block_waits.value,
            block_self_flushes=metrics.block_self_flushes.value,
            halo=halo,
            halo_tier=self.halo_store is not None,
            class_requests=metrics.class_totals(),
            ingress=self.config.ingress,
            supervisor_restarts=replicas.restarts,
            prewarmed_rows=replicas.prewarmed_rows,
            retry_attempts=metrics.retry_attempts.value,
        )

    def reset_stats(self) -> None:
        """Zero every counter while keeping cache *contents* (warm state).

        Used to measure warm-cache behaviour separately from the cold pass
        that populated the caches.
        """
        with self._lock:
            self._latencies = array("d")
            self._batch_sizes.clear()
        self.telemetry.reset()
        self._first_enqueue = None
        self._last_completion = None
        self.batcher.size_flushes = 0
        self.batcher.delay_flushes = 0
        self.batcher.forced_flushes = 0
        self.executor.reset_peak()
        for worker in self.workers:
            worker.reset_stats()
        if self.halo_store is not None:
            self.halo_store.stats = CacheStats()
        self.replicas.reset_counters()

    def describe(self) -> str:
        depth = (
            "unbounded"
            if self.config.max_queue_depth is None
            else f"<= {self.config.max_queue_depth} ({self.config.overload_policy})"
        )
        halo = (
            f"halo tier over {self.halo_store.num_shared} boundary nodes"
            if self.halo_store is not None
            else "halo tier off"
        )
        lines = [
            f"InferenceServer over {self.graph.name}: "
            f"{len(self.shards)} shards x {self.config.num_replicas} replicas, "
            f"batch<= {self.config.max_batch_size}, delay<= {self.config.max_delay * 1e3:.1f} ms, "
            f"LRU cache {self.config.cache_capacity} entries/worker, "
            f"{halo}, "
            f"executor {self.config.executor}, queues {depth}, "
            f"ingress {self.config.ingress}, "
            f"classes {{{', '.join(f'{n}={w:g}' for n, w in self.config.request_classes)}}}"
        ]
        lines.extend(f"  {shard.summary()}" for shard in self.shards)
        return "\n".join(lines)
