"""The request ledger and the micro-batching queues.

Request state lives in a ledger of numpy columns, one row per request,
held in :class:`LedgerBlock` storage: request id, node, shard, enqueue time,
deadline, pop time, status, prediction, completion time, worker, batch size
and retries are columns, and the request class and weight are block
scalars.  The request histograms are folded from the enqueue, pop and
completion columns (:meth:`LedgerBlock.unfolded`), not observed per batch.  A
window (one ``submit`` is a window of one) takes consecutive rows of the open
block for its class; when that block lacks room, a new one of
:data:`BLOCK_ROWS` rows (or the window's size, if larger) replaces
it.  So a request costs a row, not a set of arrays, and admission, batching
and every status transition work on whole runs of rows at a time.

The :class:`InferenceRequest` a caller holds is a view of one row — the pair
``(block, row)`` — with the attributes and future protocol of a request
record: it reads the row's terminal state, or waits on it with
``result(timeout=)`` / ``wait`` / ``exception``, or is ``await``-ed.  Nothing
else keeps a block: the shard queues hold its rows while they are queued, a
flush holds them while they are served, and the engine holds the open
block of each class (with and without deadlines) and, until they have all
settled and been folded, every block with rows still queued or in flight.
So a block is freed as
soon as its rows are terminal, the caller drops its views and a newer block
has replaced it; the engine keeps no per-request storage beyond its 8-byte
latency record.

Requests are coalesced per shard: a queue flushes as soon as it holds
``max_batch_size`` requests, when its oldest request has waited ``max_delay``
seconds, or when its oldest request's *deadline* has passed — the classic
latency/throughput knob of online inference servers plus deadline-aware
expiry.  All timing goes through the engine's
:class:`~repro.serving.clock.Clock`, so with a ``ManualClock`` the flush
schedule (and therefore every latency statistic) is fully deterministic.

Every request terminates in exactly one state:

``completed``
    Served; ``prediction`` holds the answer.
``rejected``
    Turned away at admission because the shard queue was full
    (``overload_policy="reject"``).
``shed``
    Admitted but later evicted from a full queue to make room for newer work
    (``overload_policy="shed_oldest"``; with multiple request classes the
    victim is the lightest class's oldest request — see
    :meth:`MicroBatcher.shed_victim`).
``expired``
    Flushed after its deadline had already passed (or its deadline passed
    before a retry could run), so it was not executed.
``failed``
    The worker (or an injected fault) raised while serving the batch and
    every failover retry was exhausted — or no dispatchable replica
    remained.  Failures never strand a request in ``pending``.

Non-completed terminal states map to typed exceptions
(:class:`RequestRejected`, :class:`RequestShed`, :class:`RequestExpired`,
:class:`RequestFailed` — all ``RuntimeError`` subclasses).

Transient failures are not terminal: a batch whose replica crashed is
retried on a sibling replica (``retries`` counts the attempts; the request
eventually lands in one of the states above).

The benchmark/property suites assert that accounting: no request is ever
silently dropped.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import InferenceServer

__all__ = [
    "InferenceRequest",
    "RequestHandle",
    "LedgerBlock",
    "LedgerRows",
    "WindowRows",
    "BLOCK_ROWS",
    "MicroBatcher",
    "TERMINAL_STATUSES",
    "RequestError",
    "RequestRejected",
    "RequestShed",
    "RequestExpired",
    "RequestFailed",
    "RequestPending",
]

#: Status codes of the ledger's ``status`` column, and their names.
PENDING, COMPLETED, REJECTED, SHED, EXPIRED, FAILED = range(6)
STATUS_NAMES = ("pending", "completed", "rejected", "shed", "expired", "failed")

TERMINAL_STATUSES = STATUS_NAMES[1:]

#: Rows of a new ledger block, unless the window that opens it is larger.
BLOCK_ROWS = 256


# -- terminal-state exception mapping ------------------------------------------


class RequestError(RuntimeError):
    """A request did not complete (terminal non-completed state, or still
    pending where waiting cannot help).

    Subclasses ``RuntimeError`` so code written against the pre-handle API
    (``pytest.raises(RuntimeError, match="rejected")`` and kin) still
    matches; ``.request_id`` and ``.status`` identify the request.
    """

    def __init__(self, request: "InferenceRequest", message: Optional[str] = None) -> None:
        self.request_id = request.request_id
        self.status = request.status
        super().__init__(
            message
            if message is not None
            else f"request {request.request_id} was {request.status}, not completed"
        )


class RequestRejected(RequestError):
    """Turned away at admission (full queue, ``overload_policy="reject"``)."""


class RequestShed(RequestError):
    """Evicted from a full queue to make room (``overload_policy="shed_oldest"``)."""


class RequestExpired(RequestError):
    """Deadline passed before the request could be executed."""


class RequestFailed(RequestError):
    """Every failover retry was exhausted (or no replica was dispatchable)."""


class RequestPending(RequestError):
    """``result()`` was called on a pending request that nothing will serve.

    Raised instead of deadlocking when no background ingress thread is
    running and no timeout was given: in synchronous mode someone must call
    ``server.drain()`` (or ``poll()``) for the request to terminate.
    """

    def __init__(self, request: "InferenceRequest") -> None:
        super().__init__(
            request,
            f"request {request.request_id} is still pending; call server.drain() "
            "first, pass a timeout, or enable ingress='thread'",
        )


_EXCEPTION_BY_STATUS = {
    REJECTED: RequestRejected,
    SHED: RequestShed,
    EXPIRED: RequestExpired,
    FAILED: RequestFailed,
}


# -- the ledger ----------------------------------------------------------------


class LedgerBlock:
    """Ledger storage: ``capacity`` rows, one per request, of one request
    class (and weight), with or without deadlines.

    Rows are handed out in order (``used`` counts them) and written as
    their window is admitted: ``ids``, ``node``, ``shard``, ``enqueue`` and
    ``deadline`` (which stays ``inf``, and ``has_deadlines`` false, for
    requests without a timeout).  ``status`` starts at ``PENDING`` and the
    engine writes the other columns under its lock: ``dequeue`` (``nan``
    until then) when the row's batch is popped, ``completion`` once a row is
    terminal (``settled`` counts those rows), ``prediction``, ``worker`` and
    ``batch_size`` once it is completed.  ``events`` maps a row to the
    completion event its first waiter created (``None`` until one does).

    ``folds`` and ``folded`` record what the request histograms have taken
    from the rows (:meth:`unfolded`).
    """

    __slots__ = (
        "server", "request_class", "weight", "has_deadlines", "used", "settled",
        "folded", "ids", "node", "shard", "enqueue", "deadline", "times", "dequeue",
        "completion", "status", "prediction", "worker", "batch_size", "retries", "folds",
        "events", "__weakref__",
    )

    def __init__(
        self,
        server: Optional["InferenceServer"],
        capacity: int,
        request_class: str = "standard",
        weight: float = 1.0,
        has_deadlines: bool = False,
    ) -> None:
        self.server = server
        self.request_class = request_class
        self.weight = weight
        self.has_deadlines = has_deadlines
        self.used = self.settled = self.folded = 0
        self.ids = np.empty(capacity, dtype=np.int64)
        self.node = np.empty(capacity, dtype=np.int64)
        self.shard = np.empty(capacity, dtype=np.int64)
        self.enqueue = np.empty(capacity)
        self.deadline = np.full(capacity, math.inf)
        # Pop and completion times side by side, so the histograms' fold
        # takes both intervals with one subtraction.
        self.times = np.empty((2, capacity))
        self.dequeue, self.completion = self.times
        self.dequeue.fill(math.nan)
        self.status = np.zeros(capacity, dtype=np.int8)
        self.prediction = np.empty(capacity, dtype=np.int64)
        self.worker = np.empty(capacity, dtype=np.int64)
        self.batch_size = np.empty(capacity, dtype=np.int64)
        self.retries = np.zeros(capacity, dtype=np.int64)
        self.folds: Optional[np.ndarray] = None
        self.events: Optional[dict] = None

    @property
    def free(self) -> int:
        return len(self.ids) - self.used

    def take(self, first_id: int, nodes: np.ndarray, shards: np.ndarray) -> int:
        """Hand out the next ``len(nodes)`` rows to requests ``first_id..``;
        returns the first row."""
        start = self.used
        stop = self.used = start + len(nodes)
        self.ids[start:stop] = np.arange(first_id, first_id + len(nodes))
        self.node[start:stop] = nodes
        self.shard[start:stop] = shards
        return start

    def unfolded(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What the request histograms have not taken from the rows yet,
        marked as taken: ``(values, shard, new)`` over the rows from
        ``folded`` to ``used``.  ``values[0]`` is each row's queue wait (pop
        minus enqueue time, ``nan`` if never popped) and ``values[1]`` its
        latency (completion minus enqueue time); ``new[0]`` marks the popped
        rows whose wait is new, ``new[1]`` the completed rows whose latency
        is.

        Rows before ``folded`` are terminal and taken.  When every row
        handed out so far has settled, everything up to ``used`` is taken
        and ``folded`` moves there.  Otherwise (an export or a reset while
        rows are queued or in flight) ``folds`` records per row what was
        taken — 1 the queue wait of a popped row, 2 everything of a terminal
        one — until the range settles.  Called under the engine lock.
        """
        low, high = self.folded, self.used
        status = self.status[low:high]
        values = self.times[:, low:high] - self.enqueue[low:high]
        new = np.empty(values.shape, dtype=bool)
        np.equal(values[0], values[0], out=new[0])  # nan: never popped
        np.equal(status, COMPLETED, out=new[1])
        if self.folds is not None:
            state = self.folds[low:high]
            new[0] &= state == 0
            new[1] &= state != 2
        if self.settled == high:
            self.folded = high
            self.folds = None
        else:
            if self.folds is None:
                self.folds = np.zeros(len(self.ids), dtype=np.int8)
            state = self.folds[low:high]
            state[new[0]] = 1
            state[status != PENDING] = 2
        return values, self.shard[low:high], new

    def views(self, start: int, stop: int) -> List["InferenceRequest"]:
        """One :class:`InferenceRequest` view per row, in row order."""
        # Inlined rather than a call to InferenceRequest._view per row: this
        # loop is one of the two per-request costs left on admission.
        new, cls = object.__new__, InferenceRequest
        views = []
        for row in range(start, stop):
            view = new(cls)
            view._block = self
            view._row = row
            views.append(view)
        return views


class LedgerRows:
    """Ledger rows in a fixed order: runs of ``(block, rows)``.

    A popped batch, the live or expired part of it, and a shed victim are
    all ``LedgerRows``; a batch has one run unless its rows came from
    several admitted windows.  Iterating yields request views.
    """

    __slots__ = ("runs", "size")

    def __init__(self, runs: Sequence[Tuple[LedgerBlock, np.ndarray]]) -> None:
        self.runs = list(runs)
        self.size = sum(len(rows) for _, rows in self.runs)

    @classmethod
    def of(cls, request: "InferenceRequest") -> "LedgerRows":
        return cls([(request._block, np.array([request._row]))])

    @classmethod
    def span(cls, block: LedgerBlock, start: int, stop: int) -> "LedgerRows":
        return cls([(block, np.arange(start, stop))])

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return self.size > 0

    def __iter__(self) -> Iterator["InferenceRequest"]:
        for block, rows in self.runs:
            for row in rows.tolist():
                yield InferenceRequest._view(block, row)

    def column(self, name: str) -> np.ndarray:
        """One ledger column gathered over the rows, in order."""
        if len(self.runs) == 1:
            block, rows = self.runs[0]
            return getattr(block, name)[rows]
        return np.concatenate([getattr(block, name)[rows] for block, rows in self.runs])

    @property
    def has_deadlines(self) -> bool:
        return any(block.has_deadlines for block, _ in self.runs)

    def request_ids(self) -> List[int]:
        return self.column("ids").tolist()

    def select(self, mask: np.ndarray) -> "LedgerRows":
        """The rows where ``mask`` (aligned with this order) is true."""
        runs = []
        start = 0
        for block, rows in self.runs:
            stop = start + len(rows)
            picked = rows[mask[start:stop]]
            if len(picked):
                runs.append((block, picked))
            start = stop
        return LedgerRows(runs)

    # -- transitions (the engine calls these under its lock) --------------------

    def mark_dequeued(self, at: float) -> None:
        """Write the pop time, once per run."""
        for block, rows in self.runs:
            block.dequeue[rows] = at

    def count_retry(self) -> None:
        for block, rows in self.runs:
            block.retries[rows] += 1

    def record_answers(self, predictions: np.ndarray, worker_id: int) -> None:
        """Write the served answers (before the rows settle as ``completed``)."""
        start = 0
        for block, rows in self.runs:
            stop = start + len(rows)
            block.prediction[rows] = predictions[start:stop]
            block.worker[rows] = worker_id
            block.batch_size[rows] = self.size
            start = stop

    def finish(self, status: int, at: float) -> None:
        """Settle every row in one terminal ``status``, exactly once."""
        for block, rows in self.runs:
            settled = block.status[rows]
            if settled.any():
                row = int(rows[np.flatnonzero(settled)[0]])
                raise RuntimeError(
                    f"request {block.ids[row]} already terminated as "
                    f"{STATUS_NAMES[block.status[row]]}"
                )
            block.completion[rows] = at
            block.status[rows] = status
            block.settled += len(rows)
            events = block.events
            if events:
                for row in rows.tolist():
                    event = events.get(row)
                    if event is not None:
                        event.set()


class InferenceRequest:
    """One "predict the label of node X" request: a view of its ledger row,
    and the caller's future.

    Reads are lock-free snapshots of the row.  :meth:`result` waits on the
    completion event when a background ingress thread is running; the event
    is created by the first waiter, so requests nobody waits on never build
    one.

    Built directly (``InferenceRequest(request_id=..., node=...,
    shard_id=..., enqueue_time=...)``) a request gets a one-row ledger block
    of its own; the engine's requests are views of their window's block.
    """

    __slots__ = ("_block", "_row")

    def __init__(
        self,
        request_id: int,
        node: int,
        shard_id: int,
        enqueue_time: float,
        deadline: Optional[float] = None,
        request_class: str = "standard",
        weight: float = 1.0,
        server: Optional["InferenceServer"] = None,
    ) -> None:
        block = LedgerBlock(
            server, 1, request_class, weight, has_deadlines=deadline is not None
        )
        block.take(request_id, np.array([node]), np.array([shard_id]))
        block.enqueue[0] = enqueue_time
        if deadline is not None:
            block.deadline[0] = deadline
        self._block = block
        self._row = 0

    @classmethod
    def _view(cls, block: LedgerBlock, row: int) -> "InferenceRequest":
        view = object.__new__(cls)
        view._block = block
        view._row = row
        return view

    def __repr__(self) -> str:
        return (
            f"InferenceRequest(request_id={self.request_id}, node={self.node}, "
            f"shard_id={self.shard_id}, status={self.status!r})"
        )

    # Views are made per access, so equality and hashing follow the row:
    # every view of one request is equal, distinct requests never are.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InferenceRequest):
            return NotImplemented
        return self._block is other._block and self._row == other._row

    def __hash__(self) -> int:
        return hash((id(self._block), self._row))

    # -- the row -----------------------------------------------------------------

    @property
    def request(self) -> "InferenceRequest":
        """The request itself (``handle.request`` reads of the old two-object
        shape keep working)."""
        return self

    @property
    def request_id(self) -> int:
        return int(self._block.ids[self._row])

    @property
    def node(self) -> int:
        return int(self._block.node[self._row])

    @property
    def shard_id(self) -> int:
        return int(self._block.shard[self._row])

    @property
    def enqueue_time(self) -> float:
        return float(self._block.enqueue[self._row])

    @property
    def deadline(self) -> Optional[float]:
        """Absolute clock time; ``None`` = no deadline."""
        block = self._block
        return float(block.deadline[self._row]) if block.has_deadlines else None

    @property
    def status(self) -> str:
        return STATUS_NAMES[self._block.status[self._row]]

    def _completed_column(self, name: str) -> Optional[int]:
        block, row = self._block, self._row
        if block.status[row] != COMPLETED:
            return None
        return int(getattr(block, name)[row])

    @property
    def prediction(self) -> Optional[int]:
        return self._completed_column("prediction")

    @property
    def worker_id(self) -> Optional[int]:
        return self._completed_column("worker")

    @property
    def batch_size(self) -> Optional[int]:
        return self._completed_column("batch_size")

    @property
    def completion_time(self) -> Optional[float]:
        block, row = self._block, self._row
        return None if block.status[row] == PENDING else float(block.completion[row])

    @property
    def dequeue_time(self) -> Optional[float]:
        """When the request's batch was popped; ``None`` while it is queued,
        and for a request never popped (rejected, shed)."""
        dequeue = float(self._block.dequeue[self._row])
        return None if math.isnan(dequeue) else dequeue

    @property
    def retries(self) -> int:
        """Failover attempts this request survived."""
        return int(self._block.retries[self._row])

    @property
    def request_class(self) -> str:
        """Admission class (see :mod:`repro.serving.frontdoor`)."""
        return self._block.request_class

    @property
    def weight(self) -> float:
        """The class's admission weight."""
        return self._block.weight

    @property
    def server(self) -> Optional["InferenceServer"]:
        """The server that owns the request (``None``: nothing can serve a wait)."""
        return self._block.server

    @property
    def _event(self) -> Optional[threading.Event]:
        events = self._block.events
        return None if events is None else events.get(self._row)

    @property
    def done(self) -> bool:
        """True once the request reached any terminal state."""
        return int(self._block.status[self._row]) != PENDING

    @property
    def completed(self) -> bool:
        return int(self._block.status[self._row]) == COMPLETED

    @property
    def latency(self) -> float:
        """Queueing + service time, in clock seconds."""
        completion = self.completion_time
        if completion is None:
            raise RuntimeError(f"request {self.request_id} has not completed yet")
        return completion - self.enqueue_time

    # -- future protocol ---------------------------------------------------------

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the request is terminal (or ``timeout`` wall seconds
        pass); returns the terminal flag without raising."""
        if self.done:
            return True
        server = self.server
        if server is None:
            return False
        event = server._completion_event(self)
        if event is not None:
            event.wait(timeout)
        return self.done

    def result(self, timeout: Optional[float] = None) -> int:
        """The prediction, waiting for completion when waiting can succeed.

        With a background ingress thread (``ingress="thread"``) a pending
        request is waited on (indefinitely, or ``timeout`` wall seconds —
        ``TimeoutError`` if it does not settle).  Without one, a pending
        request raises :class:`RequestPending` immediately unless a timeout
        was given (another thread may be draining).  Terminal non-completed
        states raise their mapped :class:`RequestError` subclass.
        """
        status = self._wait_terminal(timeout)
        if status == COMPLETED:
            return int(self._block.prediction[self._row])
        raise _EXCEPTION_BY_STATUS[status](self)

    def exception(self, timeout: Optional[float] = None) -> Optional[RequestError]:
        """The mapped terminal exception, or ``None`` when completed.

        Waits exactly like :meth:`result`.
        """
        status = self._wait_terminal(timeout)
        if status == COMPLETED:
            return None
        return _EXCEPTION_BY_STATUS[status](self)

    def _wait_terminal(self, timeout: Optional[float]) -> int:
        """The terminal status code, after waiting as :meth:`result` says."""
        block, row = self._block, self._row
        status = int(block.status[row])
        if status != PENDING:
            return status
        server = block.server
        if server is None or (timeout is None and not server.has_background_ingress):
            raise RequestPending(self)
        event = server._completion_event(self)
        if event is not None:
            event.wait(timeout)
        status = int(block.status[row])
        if status == PENDING:
            raise TimeoutError(
                f"request {self.request_id} still pending after {timeout:.3f}s"
            )
        return status

    def __await__(self):
        """``await server.submit(node)`` from asyncio (needs ``ingress="thread"``).

        The wait happens on the loop's default executor, so the event loop
        itself never blocks on the completion event.
        """
        import asyncio

        loop = asyncio.get_running_loop()
        return loop.run_in_executor(None, self.result).__await__()


#: The name ``submit()``'s return value is documented under: the same class.
RequestHandle = InferenceRequest


class WindowRows:
    """A window's ledger rows (``start..stop`` of ``block``) grouped by
    shard, admitted chunk by chunk in row order.

    ``rows[s]`` lists the window rows routed to shard ``s`` in ascending
    order (``positions[s]`` is the same as a Python list, for cheap scalar
    lookups); ``queued[s]`` counts how many of them are queued already.  A
    one-row window (a ``submit``) needs none of that: ``rows`` is ``None``.

    A ``watched`` window is one whose admissions something acts on — an
    inline poll or a pump — so it is cut into chunks where a shard may come
    due (:meth:`MicroBatcher.stamp`).  ``stale`` is true while rows were
    admitted after the last chunk that asked for the flush loop; the caller
    runs the loop once more when the window ends stale.
    """

    __slots__ = ("block", "rows", "positions", "queued", "watched", "stale")

    def __init__(
        self, block: LedgerBlock, start: int, stop: int, num_shards: int, watched: bool = True
    ) -> None:
        self.block = block
        self.watched = watched
        self.stale = False
        if stop - start == 1:
            self.rows = self.positions = self.queued = None
            return
        shards = block.shard[start:stop]
        self.rows = [np.flatnonzero(shards == shard_id) + start for shard_id in range(num_shards)]
        self.positions = [rows.tolist() for rows in self.rows]
        self.queued = [0] * num_shards

    def count_before(self, shard_id: int, row: int) -> int:
        """How many of the shard's window rows come before ``row``."""
        return bisect_left(self.positions[shard_id], row, self.queued[shard_id])


class _ShardQueue:
    """One shard's queued ledger rows in arrival order, and the enqueue
    time of the oldest (``inf`` when empty).  Iterating yields request
    views.

    Rows are held as runs of ``[block, parts]``, and every run's rows
    ascend: an admission whose rows continue the last run's block in
    ascending order appends its row array to that run's ``parts`` (so a
    stream of ``submit`` calls is one run, not one per request), anything
    else starts a run.  Parts are joined when the queue is next read as
    :meth:`runs`.
    """

    __slots__ = ("_runs", "depth", "head")

    def __init__(self) -> None:
        self._runs: List[list] = []
        self.depth = 0
        self.head = math.inf

    def append(self, block: LedgerBlock, rows: np.ndarray) -> None:
        runs = self._runs
        if not runs:
            self.head = float(block.enqueue[rows[0]])
        if runs and runs[-1][0] is block and runs[-1][1][-1][-1] < rows[0]:
            runs[-1][1].append(rows)
        else:
            runs.append([block, [rows]])
        self.depth += len(rows)

    def runs(self) -> List[Tuple[LedgerBlock, np.ndarray]]:
        """The queued rows as ``(block, rows)`` runs in arrival order."""
        for run in self._runs:
            parts = run[1]
            if len(parts) > 1:
                run[1] = [np.concatenate(parts)]
        return [(block, parts[0]) for block, parts in self._runs]

    def hold(self, runs: List[Tuple[LedgerBlock, np.ndarray]]) -> None:
        """Replace the queue's rows by ``runs`` (each non-empty and
        ascending, in arrival order)."""
        self._runs = [[block, [rows]] for block, rows in runs]
        self.depth = sum(len(rows) for _, rows in runs)
        self.head = float(runs[0][0].enqueue[runs[0][1][0]]) if runs else math.inf

    def __len__(self) -> int:
        return self.depth

    def __iter__(self) -> Iterator[InferenceRequest]:
        return iter(LedgerRows(self.runs()))

    def keys(self) -> Tuple[np.ndarray, ...]:
        """Weight, deadline, enqueue time and request id of every queued
        row, in the arrival order of :meth:`runs`."""
        rows = LedgerRows(self.runs())
        weight = np.concatenate([np.full(len(part), block.weight) for block, part in rows.runs])
        return weight, rows.column("deadline"), rows.column("enqueue"), rows.column("ids")

    def take(self, positions: np.ndarray) -> LedgerRows:
        """Remove the rows at ``positions`` (into the arrival order of
        :meth:`runs`) and return them in that order."""
        runs = self.runs()
        run_of = np.repeat(np.arange(len(runs)), [len(rows) for _, rows in runs])
        picked_runs = run_of[positions]
        picked_rows = np.concatenate([rows for _, rows in runs])[positions]
        cuts = [0, *(np.flatnonzero(np.diff(picked_runs)) + 1).tolist(), len(positions)]
        taken = LedgerRows([
            (runs[int(picked_runs[low])][0], picked_rows[low:high])
            for low, high in zip(cuts, cuts[1:])
        ])
        keep = np.ones(len(run_of), dtype=bool)
        keep[positions] = False
        remaining = []
        start = 0
        for block, rows in runs:
            stop = start + len(rows)
            left = rows[keep[start:stop]]
            if len(left):
                remaining.append((block, left))
            start = stop
        self.hold(remaining)
        return taken


class MicroBatcher:
    """Per-shard queues with size-, delay- and deadline-triggered flushing.

    Queues keep arrival order but *pop* in admission-rank order: heaviest
    class first, earliest deadline inside a class, request id as the total
    tie-break.  With a single request class and uniform deadlines that is
    plain FIFO, while multi-class traffic gets weighted,
    deadline-earliest-first admission.

    ``max_queue_depth`` bounds each shard's queue (``None`` = unbounded); the
    batcher only *reports* fullness — the admission policy (reject / shed)
    lives in the engine, which owns request state transitions.
    """

    def __init__(
        self,
        num_shards: int,
        max_batch_size: int,
        max_delay: float,
        max_queue_depth: Optional[int] = None,
    ) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if not max_delay >= 0:  # also rejects NaN
            raise ValueError("max_delay must be non-negative")
        if max_queue_depth is not None and max_queue_depth <= 0:
            raise ValueError("max_queue_depth must be positive (or None for unbounded)")
        self.max_batch_size = int(max_batch_size)
        self.max_delay = float(max_delay)
        self.max_queue_depth = None if max_queue_depth is None else int(max_queue_depth)
        self._queues: List[_ShardQueue] = [_ShardQueue() for _ in range(num_shards)]
        # Earliest deadline in each queue (inf = none): lowered on enqueue,
        # recomputed when requests leave, so a due check never rescans.
        self._deadlines: List[float] = [math.inf] * num_shards
        self.reset_counts()

    def reset_counts(self) -> None:
        """Zero ``flushes``: flush cause (size, delay, forced) -> per-shard
        flush count."""
        self.flushes = {cause: [0] * len(self._queues) for cause in ("size", "delay", "forced")}

    @property
    def pending(self) -> int:
        return sum(queue.depth for queue in self._queues)

    def queue_depth(self, shard_id: int) -> int:
        return self._queues[shard_id].depth

    def is_full(self, shard_id: int) -> bool:
        """Would admitting one more request exceed ``max_queue_depth``?"""
        if self.max_queue_depth is None:
            return False
        return self._queues[shard_id].depth >= self.max_queue_depth

    # -- admission ---------------------------------------------------------------

    def stamp(
        self,
        now: Callable[[], float],
        window: WindowRows,
        start: int,
        stop: int,
        timeout: Optional[float] = None,
    ) -> int:
        """Stamp window rows from ``start`` with one ``now()`` each — their
        enqueue times, and with a ``timeout`` their deadlines — and return
        where the admission chunk ends.

        A watched window's chunk ends just after the first row whose
        admission may make some shard due: the row that fills a queue to
        ``max_batch_size`` (counted from the queue depths and the window's
        rows per shard), or the first row stamped at or after a lower bound
        on every shard's delay and deadline trigger.  Rows before it cannot
        be due, so :meth:`enqueue_rows` checks due-ness once per chunk.  A
        bounded batcher admits one row per chunk, so the engine's overload
        policy sees every admission; an unwatched window's chunk runs to
        ``stop``.
        """
        block = window.block
        if self.max_queue_depth is not None:
            stop = start + 1
        if stop - start == 1:
            stamp = block.enqueue[start] = now()
            if timeout is not None:
                block.deadline[start] = stamp + timeout
            return stop
        stamps: List[float] = []
        append = stamps.append
        if not window.watched:
            for _ in range(start, stop):
                append(now())
        else:
            for shard_id, queue in enumerate(self._queues):
                room = self.max_batch_size - queue.depth
                if room > 0:
                    positions = window.positions[shard_id]
                    filling = window.count_before(shard_id, start) + room - 1
                    if filling < len(positions) and positions[filling] < stop:
                        stop = positions[filling] + 1
            stamp = now()
            append(stamp)
            # A row admitted at or after ``stamp`` comes due no earlier than
            # ``stamp`` plus the shorter of the delay and the timeout.
            slack = self.max_delay if timeout is None else min(self.max_delay, timeout)
            threshold = min(self.next_due(), stamp + slack)
            if stamp >= threshold:
                stop = start + 1
            for row in range(start + 1, stop):
                stamp = now()
                append(stamp)
                if stamp >= threshold:
                    stop = row + 1
                    break
        enqueue = block.enqueue[start:stop]
        enqueue[:] = stamps
        if timeout is not None:
            np.add(enqueue, timeout, out=block.deadline[start:stop])
        return stop

    def enqueue_rows(self, window: WindowRows, start: int, stop: int) -> bool:
        """Queue window rows ``start..stop`` on their shards (stamped by
        :meth:`stamp`); returns True when the flush loop must run now.

        That is when the window is watched and some shard is due at the
        last row's enqueue time.  A watched window admitted without that is
        left :attr:`~WindowRows.stale`.
        """
        block = window.block
        if window.rows is None:
            self._append(int(block.shard[start]), block, np.arange(start, stop))
        else:
            for shard_id, positions in enumerate(window.positions):
                low = window.count_before(shard_id, start)
                high = bisect_left(positions, stop, low)
                if high > low:
                    self._append(shard_id, block, window.rows[shard_id][low:high])
                    window.queued[shard_id] = high
        if not window.watched:
            return False
        window.stale = float(block.enqueue[stop - 1]) < self.next_due()
        return not window.stale

    def enqueue(self, request: InferenceRequest) -> None:
        """Queue one request (a view of its ledger row)."""
        self._append(request.shard_id, request._block, np.array([request._row]))

    def _append(self, shard_id: int, block: LedgerBlock, rows: np.ndarray) -> None:
        self._queues[shard_id].append(block, rows)
        if block.has_deadlines:
            deadline = float(block.deadline[rows].min())
            if deadline < self._deadlines[shard_id]:
                self._deadlines[shard_id] = deadline

    def _reset_deadline(self, shard_id: int) -> None:
        self._deadlines[shard_id] = min(
            (
                float(block.deadline[rows].min())
                for block, rows in self._queues[shard_id].runs()
                if block.has_deadlines
            ),
            default=math.inf,
        )

    def shed_victim(self, shard_id: int) -> InferenceRequest:
        """Evict the least-valuable queued request (the engine marks it ``shed``).

        Victim selection is class-aware: lowest admission weight first, then
        the oldest request inside that class — so multi-class overload sheds
        backfill before premium, while a single-class queue sheds its head
        exactly like the original FIFO ``shed_oldest``.
        """
        queue = self._queues[shard_id]
        weight, _, enqueue, ids = queue.keys()
        (victim,) = queue.take(np.lexsort((ids, enqueue, weight))[:1])
        self._reset_deadline(shard_id)
        return victim

    # -- flushing ----------------------------------------------------------------

    def due_at(self, shard_id: int) -> float:
        """The clock time from which this shard's queue must flush (size,
        delay or deadline): ``-inf`` once it holds a full batch, ``inf``
        while it is empty.

        O(1): the delay trigger watches the oldest *remaining* request (the
        queue's tracked head — arrival order survives rank-ordered removal)
        and the deadline trigger the queue's tracked earliest deadline —
        with class-aware popping an urgent request need not be the head.
        """
        queue = self._queues[shard_id]
        depth = queue.depth
        if depth >= self.max_batch_size:
            return -math.inf
        if not depth:
            return math.inf
        return min(queue.head + self.max_delay, self._deadlines[shard_id])

    def next_due(self) -> float:
        """The earliest :meth:`due_at` over all shards."""
        return min(map(self.due_at, range(len(self._queues))))

    def due_shards(self, now: float) -> List[int]:
        """Shards whose queue must flush at ``now`` (see :meth:`due_at`)."""
        return [
            shard_id for shard_id in range(len(self._queues)) if now >= self.due_at(shard_id)
        ]

    def pop_batch(self, shard_id: int, forced: bool = False) -> LedgerRows:
        """Dequeue up to ``max_batch_size`` rows from one shard's queue, in
        admission-rank order (class weight, then deadline, then request id):
        one lexsort over the rank columns.

        A queue of one run — one block's rows, ascending, as their request
        ids do — shares one class, so it needs at most a stable sort by
        deadline.  Gathering the rank columns for it instead lowered warm
        goodput by ~17 %.
        """
        queue = self._queues[shard_id]
        if not queue.depth:
            return LedgerRows([])
        limit = self.max_batch_size
        runs = queue.runs()
        if len(runs) == 1:
            block, rows = runs[0]
            if block.has_deadlines:
                rows = rows[np.argsort(block.deadline[rows], kind="stable")]
            batch = LedgerRows([(block, rows[:limit])])
            left = rows[limit:]
            if block.has_deadlines:
                left = np.sort(left)  # back to arrival order
            queue.hold([(block, left)] if len(left) else [])
        else:
            weight, deadline, _, ids = queue.keys()
            batch = queue.take(np.lexsort((ids, deadline, -weight))[:limit])
        self._reset_deadline(shard_id)
        if forced:
            cause = "forced"
        elif len(batch) >= limit:
            cause = "size"
        else:
            cause = "delay"
        self.flushes[cause][shard_id] += 1
        return batch

    def nonempty_shards(self) -> List[int]:
        return [shard_id for shard_id, queue in enumerate(self._queues) if queue.depth]
