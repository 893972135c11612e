"""The online inference server: routing, micro-batching, sharded execution.

Request lifecycle::

    submit_many(nodes, request_class=...) ──▶ ledger rows: a row per
                     │  request in numpy columns (consecutive rows of the
                     │  open block of its class);
                     │  the caller gets one InferenceRequest view per row
                     │  (result(timeout=), done, typed terminal exceptions;
                     │  awaitable under ingress="thread", where a FrontDoor
                     │  pump thread drives the flush loop so arrivals land
                     │  mid-round)
                     ▼
                     admission in chunks, one clock read per row; a chunk
                     │  ends where a shard may come due (bounded queues:
                     │  one row per chunk, reject / shed lightest class)
                     ▼
                     route by node id to the owning shard's queue
                     │  (MicroBatcher: flush at max_batch_size, max_delay,
                     │   or the oldest request's deadline)
                     ▼
    Scheduler ──────▶ one flush task per due shard, dispatched through a
                     │  FlushExecutor (SerialExecutor inline, or
                     │  ConcurrentExecutor over a thread pool); a flush
                     │  pops, expires, serves and settles its batch's rows
                     │  with array operations
                     ▼
    status column ∈ {completed, rejected, shed, expired, failed}
    ServerStats (p50/p95/p99, hit rate, per-shard load, overload counters)

The request ledger (:mod:`repro.serving.batcher`) is the only request
state: the queues hold ledger rows, a flush settles rows, and a handle reads
its row.  Per request the engine does one clock read and builds one view;
everything else runs per chunk or per batch.  A block is freed once its
rows are terminal, the caller has dropped their views and a newer block has
replaced it as its class's open block.

The :class:`~repro.serving.scheduler.Scheduler` owns the flush loop; it is
the only caller of the engine's flush.  By
default a ``submit``/``submit_many`` window polls whenever some shard's flush
time (size, delay or deadline) has come, and once before returning — so
size-triggered batches flush immediately, and the only polls skipped are
those that would flush nothing.
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
    PENDING,
    REJECTED,
    BLOCK_ROWS,
    SHED,
    STATUS_NAMES,
    TERMINAL_STATUSES,
    InferenceRequest,
    LedgerBlock,
    LedgerRows,
    MicroBatcher,
    WindowRows,
)
from ..telemetry import Telemetry
from .cache import CacheStats, HaloStore
from .clock import Clock, SystemClock
from .config import ServingConfig
from .executor import make_executor
from .faults import InjectedFault, ReplicaDead, ReplicaHung
from .frontdoor import DEFAULT_REQUEST_CLASSES, FrontDoor, RequestHandle
from .metrics import ServingMetrics
from .procplane import ProcessPlane
from .replicas import Replica, ReplicaSet
from .scheduler import DrainTimeout, Scheduler
from .shard import GraphShard, build_shards
from .stats import ServerStats, WorkerLoad
from .timing import merge_stage_totals
from .worker import LocalPlane

__all__ = ["ServingConfig", "InferenceServer", "RequestHandle", "DrainTimeout"]

#: class name -> admission weight.
_CLASS_WEIGHTS = dict(DEFAULT_REQUEST_CLASSES)
#: Root-span field -> the ledger column a settle hands the tracer for it.
_SPAN_COLUMNS = {
    "request_id": "ids",
    "node": "node",
    "shard": "shard",
    "submit": "enqueue",
    "dequeue": "dequeue",
    "retries": "retries",
}


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
            ProcessPlane(graph, self.shards, model)
            if self.config.executor == "process"
            else LocalPlane(graph, self.shards, model, self.clock.now)
        )

        self.halo_store = self._build_halo_store()
        full_degrees = graph.degrees() if self.halo_store is not None else None
        # Shard-local masks of rows whose full neighbour list is inside the
        # shard (the subgraph relabelling is monotone, so induced row i is
        # global node shard.nodes[i]).  Only those rows may be stored in the
        # shared store.  Kept for rebuilds: a rebuilt replica needs
        # the same mask its corpse was built with.
        self._publish_masks = [
            (
                shard.graph.degrees() == full_degrees[shard.nodes]
                if full_degrees is not None
                else None
            )
            for shard in self.shards
        ]

        # Telemetry plane: every count stays with its owner (this engine,
        # the batcher, the scheduler, the replica set, the fault plan) and
        # the registry copies them at export; the request histograms are
        # folded from the ledger (_fold_ledger), and only the batch-size and
        # stage histograms are observed per batch.  The tracer (telemetry
        # mode "trace") reads request spans from the ledger's settled rows
        # and records batch-level dispatch attempts.  With telemetry "off"
        # the registry is null and the tracer is None, so the hot path
        # degrades to no-op calls and `is not None` checks.
        self.telemetry = Telemetry(self.config.telemetry, self.config.trace_capacity)
        self.tracer = self.telemetry.tracer
        self._metrics = ServingMetrics(
            self.telemetry.registry, len(self.shards), class_names=list(_CLASS_WEIGHTS)
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

        # Engine-wide lock: guards queue admission, the stats accumulators
        # and the ledger counts.  Flush tasks run prediction *outside* it.
        self._lock = threading.RLock()
        # Capacity condition over the same lock: restart_replica, drain and
        # shutdown wait here for in-flight flushes, and every flush notifies
        # it when it settles.
        self._capacity = threading.Condition(self._lock)
        self._inflight_flushes = 0
        self._serving_depth = 0
        # The next request id; a window reserves its ids under the lock, so
        # concurrent submitters never share one.
        self._next_request_id = 0
        # (class, has deadlines) -> the ledger block windows take their rows
        # from while it has room.
        self._open_blocks: Dict[Tuple[str, bool], LedgerBlock] = {}
        # Blocks that have handed out rows not all settled yet, in the order
        # they were first used (None with telemetry off: nothing is folded).
        # Each is alive anyway, through its queued or in-flight rows or as
        # an open block; it leaves once its rows are settled and folded.
        self._folding: Optional[Dict[LedgerBlock, None]] = (
            {} if self.telemetry.enabled else None
        )
        # Completed-request latencies as packed doubles: 8 bytes a request
        # where a list of floats costs 32.
        self._latencies = array("d")
        self._batch_sizes: List[int] = []
        self._first_enqueue: Optional[float] = None
        self._last_completion: Optional[float] = None
        self._closed = False
        self._zero_counts()

        if self.telemetry.enabled:
            self.telemetry.add_collector(lambda: self._metrics.collect(self))
        if self.tracer is not None:
            self.tracer.unsettled = self._unsettled_rows

        # Background ingress pump (ingress="thread"): started last so it can
        # never observe a half-built server.
        self.frontdoor: Optional[FrontDoor] = None
        if self.config.ingress == "thread":
            self.frontdoor = FrontDoor(self)
            self.frontdoor.start()

    def _build_halo_store(self) -> Optional[HaloStore]:
        """The shared embedding store when ``halo_tier`` is on, for any
        number of workers: it covers every node and is each worker's only
        store.  Without it each worker gets a private store, or none when
        ``cache_capacity`` is 0 (:meth:`_build_worker`)."""
        return self.plane.build_halo_store() if self.config.halo_tier else None

    def _build_worker(self, shard_id: int, worker_id: int, epoch: int) -> Replica:
        """One replica from the shard spec (the :class:`ReplicaSet` factory:
        initial build *and* rebuilds go through here, so a rebuilt worker is
        constructed exactly like its corpse was — same shard, same store
        rule, same publish mask — plus a bumped epoch)."""
        return self.plane.spawn_worker(
            shard_id,
            worker_id,
            epoch,
            self._publish_masks[shard_id],
            self.halo_store is None and self.config.cache_capacity > 0,
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
                self._capacity.wait(timeout=self._CAPACITY_WAIT_TIMEOUT)
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
    ) -> InferenceRequest:
        """Enqueue one prediction request; returns its :class:`InferenceRequest`
        (also importable as ``RequestHandle``).

        ``timeout`` (clock seconds, defaulting to ``config.default_timeout``)
        sets the request's deadline: if it is still queued when its deadline
        passes it terminates as ``expired`` instead of being executed.
        ``request_class`` picks the admission class of
        :data:`~repro.serving.frontdoor.DEFAULT_REQUEST_CLASSES`
        (``"standard"`` when omitted) — heavier classes are batched first
        and shed last.

        Under admission control the returned handle may already be terminal
        (``status == "rejected"``); ``handle.result()`` then raises the
        mapped :class:`~repro.serving.batcher.RequestError`.  With
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
    ) -> List[InferenceRequest]:
        """Enqueue a window of requests; returns one request view per node,
        in order.

        The window is validated as a whole before anything is admitted: a
        bad node, timeout or class raises and leaves every queue untouched.
        It then takes consecutive ledger rows and is admitted in chunks:
        each row is stamped with one clock read, and a chunk ends at the row
        that fills a shard's batch or may make a shard's delay or deadline
        due (:meth:`MicroBatcher.stamp`).  The flush loop (an inline round,
        or a wake of the pump) runs after a chunk only when the batcher says
        some shard's flush time (size, delay or deadline) has come, and once
        before returning — skipping only rounds that would flush nothing, so
        the batches are exactly those of one ``submit`` per node.  With
        bounded queues every row is its own chunk, so the overload policy
        sees each admission.
        """
        if self._closed:
            raise RuntimeError("server is shut down")
        nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
        num_nodes = self.graph.num_nodes
        # One reduction: as unsigned, a negative node is out of range too.
        if len(nodes) and nodes.view(np.uint64).max() >= num_nodes:
            node = int(nodes[(nodes < 0) | (nodes >= num_nodes)][0])
            raise ValueError(f"node {node} is outside the graph (0..{num_nodes - 1})")
        if timeout is None:
            timeout = self.config.default_timeout
        elif not timeout > 0:  # also rejects NaN
            raise ValueError("timeout must be positive (or None for no deadline)")
        class_name = "standard" if request_class is None else str(request_class)
        weight = _CLASS_WEIGHTS.get(class_name)
        if weight is None:
            raise ValueError(
                f"unknown request_class {class_name!r}; classes: {list(_CLASS_WEIGHTS)}"
            )

        count = len(nodes)
        shards = self._owner[nodes]
        block, base = self._take_rows(nodes, shards, class_name, weight, timeout is not None)
        requests = block.views(base, base + count)

        # How an admission reaches the flush loop: wake the pump, run a round
        # inline, or (flush_on_submit off) nothing.
        if self.frontdoor is not None:
            kick = self.frontdoor.notify
        elif self.scheduler.flush_on_submit:
            kick = self.scheduler.poll
        else:
            kick = None
        window = WindowRows(block, base, base + count, len(self.shards), kick is not None)
        batcher = self.batcher
        now = self.clock.now
        start, end = base, base + count
        while start < end:
            stop = batcher.stamp(now, window, start, end, timeout)
            if self._first_enqueue is None:
                self._first_enqueue = float(block.enqueue[base])
            if self._admit(window, start, stop):
                kick()
            start = stop
        if window.stale:
            kick()
        return requests

    def _take_rows(
        self,
        nodes: np.ndarray,
        shards: np.ndarray,
        class_name: str,
        weight: float,
        has_deadlines: bool,
    ) -> Tuple[LedgerBlock, int]:
        """Ledger rows for a window, with fresh request ids: the next rows of
        the open block for its class, or of a new one (``BLOCK_ROWS``
        rows, or the window's size if larger) when it lacks room.  Returns
        the block and the window's first row."""
        count = len(nodes)
        key = (class_name, has_deadlines)
        with self._lock:
            first_id = self._next_request_id
            self._next_request_id += count
            block = self._open_blocks.get(key)
            if block is None or block.free < count:
                block = self._open_blocks[key] = LedgerBlock(
                    self, max(count, BLOCK_ROWS), class_name, weight, has_deadlines
                )
            if self._folding is not None:
                self._folding[block] = None
            return block, block.take(first_id, nodes, shards)

    #: Lost-wakeup safety net for capacity waiters, in wall seconds.  Every
    #: settled flush notifies the condition, so the timeout should never be
    #: the thing that wakes a waiter — it only bounds the damage if a future
    #: change forgets a notify.
    _CAPACITY_WAIT_TIMEOUT = 0.05

    def _completion_event(self, request: InferenceRequest) -> Optional[threading.Event]:
        """The event a waiter blocks on, created on first use; None once the
        request is terminal.

        Created under the engine lock, which every terminal transition also
        holds: either the event exists before the row settles (which sets
        it) or the waiter sees the terminal status — no wakeup can be lost.
        """
        block, row = request._block, request._row
        with self._lock:
            if block.status[row] != PENDING:
                return None
            if block.events is None:
                block.events = {}
            event = block.events.get(row)
            if event is None:
                event = block.events[row] = threading.Event()
            return event

    def _zero_counts(self) -> None:
        """The engine's ledger counts: terminal requests by status and shard
        and by class and status, retried requests and failovers per shard,
        and retry attempts."""
        shards = len(self.shards)
        self._status_counts = {status: [0] * shards for status in TERMINAL_STATUSES}
        self._class_counts = {
            name: dict.fromkeys(TERMINAL_STATUSES, 0) for name in _CLASS_WEIGHTS
        }
        self._retried = [0] * shards
        self._failovers = [0] * shards
        self._retry_attempts = 0

    def _terminal(
        self, rows: LedgerRows, status: int, now: float, shard_id: Optional[int] = None
    ) -> None:
        """Settle ledger rows in one terminal state: status columns, owner
        counts, request histograms and, when tracing, one copy of the rows'
        columns into the tracer's span ring.

        ``shard_id`` names the one shard of a batch; without it the rows are
        counted by their shard column.  A block whose handed-out rows have
        now all settled is folded into the request histograms.  Callers hold
        the engine lock (so a waiter's event cannot be created
        mid-transition); :meth:`LedgerRows.finish` enforces exactly-once.
        """
        if not rows:
            return
        rows.finish(status, now)
        folding = self._folding
        if folding is not None:
            # A block listed twice (two runs of one batch) folds nothing
            # the second time.
            settled = [block for block, _ in rows.runs if block.settled == block.used]
            if settled:
                self._metrics.fold(settled)
                for block in settled:
                    folding.pop(block, None)
        name = STATUS_NAMES[status]
        counts = self._status_counts[name]
        if shard_id is None:
            shards = np.bincount(rows.column("shard"), minlength=len(counts)).tolist()
            for shard_id, count in enumerate(shards):
                counts[shard_id] += count
        else:
            counts[shard_id] += len(rows)
        class_counts = self._class_counts
        for block, part in rows.runs:
            class_counts[block.request_class][name] += len(part)
        if self.tracer is not None:
            columns = {field: rows.column(column) for field, column in _SPAN_COLUMNS.items()}
            if status == COMPLETED:
                columns["worker_id"] = rows.column("worker")
            self.tracer.on_settled(name, now, columns)

    def _fold_ledger(self) -> None:
        """Fold every row settled or popped since the last fold into the
        request histograms, and forget the blocks whose rows have all
        settled."""
        with self._lock:
            folding = self._folding
            if folding is None:
                return
            blocks = list(folding)
            self._metrics.fold(blocks)
            self._metrics.publish()
            for block in blocks:
                if block.settled == block.used:
                    del folding[block]

    def _unsettled_rows(self) -> int:
        """Rows handed out and not yet terminal (all in ``_folding`` blocks)."""
        with self._lock:
            return sum(block.used - block.settled for block in self._folding)

    def _admit(self, window: WindowRows, start: int, stop: int) -> bool:
        """Queue window rows ``start..stop`` under the overload policy;
        returns True when the flush loop must run now
        (:meth:`MicroBatcher.enqueue_rows`), never when nothing was admitted.

        Unbounded queues take the chunk whole.  A bounded queue admits one
        row at a time (:meth:`MicroBatcher.stamp` cuts single-row chunks): the full-check
        and the reject/shed/enqueue that follows it run under one lock hold,
        so concurrent submitters cannot both see room and push a queue past
        ``max_queue_depth``.
        """
        batcher = self.batcher
        block = window.block
        with self._lock:
            if self._closed:
                # Shut down mid-window: shutdown's final drain may already
                # have run, so nothing may be queued any more.
                self._terminal(LedgerRows.span(block, start, stop), REJECTED, self.clock.now())
                return False
            shard_id = int(block.shard[start])
            if batcher.is_full(shard_id):  # bounded: the chunk is this one row
                now = self.clock.now()
                if self.config.overload_policy == "reject":
                    self._terminal(LedgerRows.span(block, start, stop), REJECTED, now, shard_id)
                    return False
                victim = batcher.shed_victim(shard_id)
                self._terminal(LedgerRows.of(victim), SHED, now, shard_id)
            return batcher.enqueue_rows(window, start, stop)

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
                        self._capacity.wait(timeout=self._CAPACITY_WAIT_TIMEOUT)
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
            return {
                "pending": self.batcher.pending,
                "queue_depths": {
                    shard_id: self.batcher.queue_depth(shard_id)
                    for shard_id in range(len(self.shards))
                },
                "inflight_flushes": self._inflight_flushes,
                "terminal": {
                    status: sum(counts) for status, counts in self._status_counts.items()
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
        if not requests:
            return np.zeros(0, dtype=np.int64)
        # A window's rows are consecutive rows of one ledger block.
        block, base = requests[0]._block, requests[0]._row
        rows = slice(base, base + len(requests))
        incomplete = int((block.status[rows] != COMPLETED).sum())
        if incomplete:
            raise RuntimeError(
                f"{incomplete} of {len(requests)} requests did not complete "
                "(rejected/shed/expired by admission control, or failed); "
                "use submit_many() + drain() and check request.status"
            )
        return block.prediction[rows].copy()

    def shutdown(self) -> None:
        """Deterministic teardown: every in-flight request reaches a terminal
        state before executor threads are released (idempotent).

        Order matters: the server closes *first* (new submits raise; the
        rest of a window mid-admission rejects), then
        pending queues drain, then the call waits for any flush still in
        flight on another thread to settle — so a shutdown racing a
        mid-flight round can never leave a request non-terminal — and drains
        once more to catch requests that were admitted while the round was
        settling.
        """
        if self._closed:
            return
        with self._lock:
            self._closed = True
        if self.frontdoor is not None:
            # Quiesce the ingress pump before draining so the final drains
            # cannot race a background poll.
            self.frontdoor.stop()
        self.drain()
        with self._capacity:
            while self._inflight_flushes > 0:
                self._capacity.wait(timeout=self._CAPACITY_WAIT_TIMEOUT)
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
        """Hold the model in eval/no-grad while it serves a batch.

        Entered once per dispatch attempt, possibly from several flush
        threads at once.  The module tree is walked only when the model is in
        training mode: the outermost entry switches it to eval and the last
        exit restores training mode.  A model already in eval mode (the
        serving case) is never walked, so an attempt costs no ``train()``
        calls.
        """
        with self._lock:
            first = self._serving_depth == 0
            self._serving_depth += 1
            if first:
                self._was_training = self.model.training
                if self._was_training:
                    self.model.eval()
        try:
            with no_grad():
                yield
        finally:
            with self._lock:
                self._serving_depth -= 1
                if self._serving_depth == 0 and self._was_training:
                    self.model.train(True)

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
            now = self.clock.now()
            batch.mark_dequeued(now)
            live = self._expire(batch, shard_id, now)
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
                pending = live.select(live.column("status") == PENDING)
                self._terminal(pending, FAILED, self.clock.now(), shard_id)
            raise
        finally:
            with self._lock:
                self._inflight_flushes -= 1
                self._capacity.notify_all()  # wake restart_replica, drain, shutdown
        return 1

    def _expire(self, rows: LedgerRows, shard_id: int, now: float) -> LedgerRows:
        """Settle the rows whose deadline has passed at ``now`` as expired;
        returns the rest.  Called under the engine lock."""
        if not rows.has_deadlines:
            return rows
        expired = rows.column("deadline") <= now
        if not expired.any():
            return rows
        self._terminal(rows.select(expired), EXPIRED, now, shard_id)
        return rows.select(~expired)

    def _serve_batch(self, shard_id: int, live: LedgerRows) -> None:
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
            nodes = live.column("node")
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
                    live.request_ids(),
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
                with self._lock:
                    if attempt > self.config.max_retries:
                        self._terminal(live, FAILED, now, shard_id)
                        return
                    self._retry_attempts += 1
                    live = self._expire(live, shard_id, now)
                    live.count_retry()
                    self._retried[shard_id] += len(live)
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
                    self._failovers[shard_id] += 1
                size = len(live)
                live.record_answers(np.asarray(predictions), worker.worker_id)
                self._terminal(live, COMPLETED, now, shard_id)
                latencies = now - live.column("enqueue")
                self._latencies.frombytes(latencies.tobytes())
                self._batch_sizes.append(size)
                if self.telemetry.enabled:
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

    def _serve_degraded(self, shard_id: int, live: LedgerRows) -> None:
        """Zero dispatchable replicas: fail every request of the batch."""
        with self._lock:
            now = self.clock.now()
            self._terminal(live, FAILED, now, shard_id)
        if self.tracer is not None:
            record = self.tracer.attempt(shard_id, None, live.request_ids(), 0, None, now)
            self.tracer.end_attempt(record, now, "degraded")

    # -- introspection -----------------------------------------------------------

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
            cache = cache.merge(worker.cache_stats)
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
        # Every count below is read from its owner, in every telemetry mode;
        # the export copies the same counts (ServingMetrics.collect).
        with self._lock:
            # Copied under the lock that frombytes() holds: an array
            # exporting its buffer to a copy in flight cannot be resized.
            latencies = np.array(self._latencies, dtype=np.float64)
            batch_sizes = np.array(self._batch_sizes, dtype=np.int64)
            terminal = {status: sum(counts) for status, counts in self._status_counts.items()}
            class_requests = {name: dict(counts) for name, counts in self._class_counts.items()}
            flushes = {cause: sum(counts) for cause, counts in self.batcher.flushes.items()}
            retried, failovers = sum(self._retried), sum(self._failovers)
            retry_attempts = self._retry_attempts
        return ServerStats(
            stage_seconds=merge_stage_totals(worker.timings for worker in self.workers),
            completed_requests=terminal["completed"],
            latencies=latencies,
            batch_sizes=batch_sizes,
            cache=cache,
            workers=loads,
            size_flushes=flushes["size"],
            delay_flushes=flushes["delay"],
            forced_flushes=flushes["forced"],
            duration=duration,
            executor=self.config.executor,
            peak_concurrency=self.executor.peak_concurrency,
            rejected_requests=terminal["rejected"],
            shed_requests=terminal["shed"],
            expired_requests=terminal["expired"],
            failed_requests=terminal["failed"],
            retried_requests=retried,
            failovers=failovers,
            worker_failures=sum(replicas.failures),
            injected_faults=self.faults.total_injected if self.faults is not None else 0,
            halo=halo,
            halo_tier=self.halo_store is not None,
            class_requests=class_requests,
            ingress=self.config.ingress,
            supervisor_restarts=replicas.restarts,
            retry_attempts=retry_attempts,
        )

    def reset_stats(self) -> None:
        """Zero every count at its owner, and the registry's histograms, while
        keeping cache *contents* (warm state).

        Used to measure warm-cache behaviour separately from the cold pass
        that populated the caches.
        """
        with self._lock:
            # Rows settled or popped before the reset belong to the old
            # window: they are folded now, and the registry reset below
            # drops them with the rest of it.
            self._fold_ledger()
            self._latencies = array("d")
            self._batch_sizes.clear()
            self._zero_counts()
            self.batcher.reset_counts()
            self.scheduler.rounds = 0
        self.telemetry.reset()
        self._first_enqueue = None
        self._last_completion = None
        self.executor.reset_peak()
        for worker in self.workers:
            worker.reset_stats()
        if self.halo_store is not None:
            self.halo_store.stats = CacheStats()
        self.replicas.reset_counters()
        if self.faults is not None:
            self.faults.reset_counts()

    def describe(self) -> str:
        depth = (
            "unbounded"
            if self.config.max_queue_depth is None
            else f"<= {self.config.max_queue_depth} ({self.config.overload_policy})"
        )
        if self.halo_store is not None:
            store = f"shared embedding store over {self.graph.num_nodes} nodes (halo tier)"
        elif self.config.cache_capacity > 0:
            store = f"private embedding store over {self.graph.num_nodes} nodes per worker"
        else:
            store = "no embedding store"
        lines = [
            f"InferenceServer over {self.graph.name}: "
            f"{len(self.shards)} shards x {self.config.num_replicas} replicas, "
            f"batch<= {self.config.max_batch_size}, delay<= {self.config.max_delay * 1e3:.1f} ms, "
            f"{store}, "
            f"executor {self.config.executor}, queues {depth}, "
            f"ingress {self.config.ingress}, "
            f"classes {{{', '.join(f'{n}={w:g}' for n, w in DEFAULT_REQUEST_CLASSES)}}}"
        ]
        lines.extend(f"  {shard.summary()}" for shard in self.shards)
        return "\n".join(lines)
