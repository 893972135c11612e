"""Request futures and the micro-batching queues.

One :class:`InferenceRequest` object per submitted request is both the
engine's record of it and the caller's future (``RequestHandle`` is a second
name for the same class): the engine writes its terminal state, and the
caller reads it or waits on it with ``result(timeout=)`` / ``wait`` /
``exception``, or ``await``s it.

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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import InferenceServer

__all__ = [
    "InferenceRequest",
    "RequestHandle",
    "MicroBatcher",
    "TERMINAL_STATUSES",
    "RequestError",
    "RequestRejected",
    "RequestShed",
    "RequestExpired",
    "RequestFailed",
    "RequestPending",
]

PENDING = "pending"
COMPLETED = "completed"
REJECTED = "rejected"
SHED = "shed"
EXPIRED = "expired"
FAILED = "failed"

TERMINAL_STATUSES = (COMPLETED, REJECTED, SHED, EXPIRED, FAILED)


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


# ``eq=False`` keeps identity hashing: with the default ``eq=True`` a mutable
# dataclass is unhashable, and ``asyncio.gather(*requests)`` hashes its
# arguments.
@dataclass(slots=True, eq=False)
class InferenceRequest:
    """One "predict the label of node X" request: the engine's record and
    the caller's future.

    State reads are lock-free snapshots.  :meth:`result` waits on the
    completion event when a background ingress thread is running; the event
    is created by the first waiter, so requests nobody waits on never build
    one.
    """

    request_id: int
    node: int
    shard_id: int
    enqueue_time: float
    deadline: Optional[float] = None     # absolute clock time; None = no deadline
    status: str = PENDING
    prediction: Optional[int] = None
    completion_time: Optional[float] = None
    worker_id: Optional[int] = None
    batch_size: Optional[int] = None
    retries: int = 0                     # failover attempts this request survived
    request_class: str = "standard"      # admission class (see serving.frontdoor)
    weight: float = 1.0                  # the class's admission weight
    #: the server that owns the request (None: nothing can serve a wait).
    server: Optional["InferenceServer"] = field(default=None, repr=False)
    #: completion event backing wait/result; None until the first waiter
    #: creates it under the engine lock (never, when nothing waits), so most
    #: requests finish without one.
    _event: Optional[threading.Event] = field(default=None, repr=False)

    @property
    def request(self) -> "InferenceRequest":
        """The request itself (``handle.request`` reads of the old two-object
        shape keep working)."""
        return self

    @property
    def done(self) -> bool:
        """True once the request reached any terminal state."""
        return self.status != PENDING

    @property
    def completed(self) -> bool:
        return self.status == COMPLETED

    @property
    def latency(self) -> float:
        """Queueing + service time, in clock seconds."""
        if self.completion_time is None:
            raise RuntimeError(f"request {self.request_id} has not completed yet")
        return self.completion_time - self.enqueue_time

    # -- future protocol ---------------------------------------------------------

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the request is terminal (or ``timeout`` wall seconds
        pass); returns the terminal flag without raising."""
        if self.status != PENDING:
            return True
        if self.server is None:
            return False
        event = self.server._completion_event(self)
        if event is not None:
            event.wait(timeout)
        return self.status != PENDING

    def result(self, timeout: Optional[float] = None) -> int:
        """The prediction, waiting for completion when waiting can succeed.

        With a background ingress thread (``ingress="thread"``) a pending
        request is waited on (indefinitely, or ``timeout`` wall seconds —
        ``TimeoutError`` if it does not settle).  Without one, a pending
        request raises :class:`RequestPending` immediately unless a timeout
        was given (another thread may be draining).  Terminal non-completed
        states raise their mapped :class:`RequestError` subclass.
        """
        self._wait_terminal(timeout)
        if self.status == COMPLETED:
            return int(self.prediction)
        raise _EXCEPTION_BY_STATUS[self.status](self)

    def exception(self, timeout: Optional[float] = None) -> Optional[RequestError]:
        """The mapped terminal exception, or ``None`` when completed.

        Waits exactly like :meth:`result`.
        """
        self._wait_terminal(timeout)
        if self.status == COMPLETED:
            return None
        return _EXCEPTION_BY_STATUS[self.status](self)

    def _wait_terminal(self, timeout: Optional[float]) -> None:
        if self.status != PENDING:
            return
        server = self.server
        if server is None or (timeout is None and not server.has_background_ingress):
            raise RequestPending(self)
        event = server._completion_event(self)
        if event is not None and not event.wait(timeout) and self.status == PENDING:
            raise TimeoutError(
                f"request {self.request_id} still pending after {timeout:.3f}s"
            )

    def __await__(self):
        """``await server.submit(node)`` from asyncio (needs ``ingress="thread"``).

        The wait happens on the loop's default executor, so the event loop
        itself never blocks on the completion event.
        """
        import asyncio

        loop = asyncio.get_running_loop()
        return loop.run_in_executor(None, self.result).__await__()

    # -- admission ordering ------------------------------------------------------

    def admission_rank(self) -> Tuple[float, float, int]:
        """Sort key of class-aware admission: heaviest class first, earliest
        deadline inside a class, submission order as the total tie-break.

        With a single class and uniform deadlines this degenerates to FIFO,
        so classless callers keep plain FIFO batching bit-for-bit.
        """
        deadline = math.inf if self.deadline is None else self.deadline
        return (-self.weight, deadline, self.request_id)

    # -- terminal transitions (called by the engine, under its lock) -----------

    def _finish(self, status: str, at: float) -> None:
        if self.status != PENDING:
            raise RuntimeError(
                f"request {self.request_id} already terminated as {self.status}"
            )
        self.status = status
        self.completion_time = at
        if self._event is not None:
            self._event.set()


#: The name ``submit()``'s return value is documented under: the same class.
RequestHandle = InferenceRequest


class MicroBatcher:
    """Per-shard queues with size-, delay- and deadline-triggered flushing.

    Queues keep arrival order but *pop* by :meth:`InferenceRequest.admission_rank`
    (heaviest class first, earliest deadline inside a class), so with a
    single request class they behave as the original FIFO queues while
    multi-class traffic gets weighted, deadline-earliest-first admission.

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
        # Arrival-ordered lists (append at the tail; rank-ordered removal).
        self._queues: List[List[InferenceRequest]] = [[] for _ in range(num_shards)]
        # Earliest deadline in each queue (inf = none): raised on enqueue,
        # recomputed when requests leave, so a due check never rescans.
        self._deadlines: List[float] = [math.inf] * num_shards
        self.reset_counts()

    def reset_counts(self) -> None:
        """Zero ``flushes``: flush cause (size, delay, forced) -> per-shard
        flush count."""
        self.flushes = {cause: [0] * len(self._queues) for cause in ("size", "delay", "forced")}

    @property
    def pending(self) -> int:
        return sum(len(queue) for queue in self._queues)

    def queue_depth(self, shard_id: int) -> int:
        return len(self._queues[shard_id])

    def is_full(self, shard_id: int) -> bool:
        """Would admitting one more request exceed ``max_queue_depth``?"""
        if self.max_queue_depth is None:
            return False
        return len(self._queues[shard_id]) >= self.max_queue_depth

    def enqueue(self, request: InferenceRequest) -> None:
        shard_id = request.shard_id
        self._queues[shard_id].append(request)
        deadline = request.deadline
        if deadline is not None and deadline < self._deadlines[shard_id]:
            self._deadlines[shard_id] = deadline

    def _reset_deadline(self, shard_id: int) -> None:
        self._deadlines[shard_id] = min(
            (r.deadline for r in self._queues[shard_id] if r.deadline is not None),
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
        victim = min(queue, key=lambda r: (r.weight, r.enqueue_time, r.request_id))
        queue.remove(victim)
        self._reset_deadline(shard_id)
        return victim

    def due_at(self, shard_id: int) -> float:
        """The clock time from which this shard's queue must flush (size,
        delay or deadline): ``-inf`` once it holds a full batch, ``inf``
        while it is empty.

        O(1): the delay trigger watches the oldest *remaining* request
        (``queue[0]`` — arrival order survives rank-ordered removal) and the
        deadline trigger the queue's tracked earliest deadline — with
        class-aware popping an urgent request need not be the head.
        """
        queue = self._queues[shard_id]
        if len(queue) >= self.max_batch_size:
            return -math.inf
        try:
            head = queue[0]
        except IndexError:  # empty (or emptied by a concurrent pop)
            return math.inf
        return min(head.enqueue_time + self.max_delay, self._deadlines[shard_id])

    def next_due(self) -> float:
        """The earliest :meth:`due_at` over all shards."""
        return min(map(self.due_at, range(len(self._queues))))

    def due_shards(self, now: float) -> List[int]:
        """Shards whose queue must flush at ``now`` (see :meth:`due_at`)."""
        return [
            shard_id for shard_id in range(len(self._queues)) if now >= self.due_at(shard_id)
        ]

    def pop_batch(self, shard_id: int, forced: bool = False) -> List[InferenceRequest]:
        """Dequeue up to ``max_batch_size`` requests from one shard's queue,
        in admission-rank order (class weight, then deadline, then arrival)."""
        queue = self._queues[shard_id]
        if not queue:
            return []
        if len(queue) <= self.max_batch_size:
            batch = sorted(queue, key=InferenceRequest.admission_rank)
            queue.clear()
        else:
            batch = sorted(queue, key=InferenceRequest.admission_rank)[: self.max_batch_size]
            taken = {request.request_id for request in batch}
            self._queues[shard_id] = [
                request for request in queue if request.request_id not in taken
            ]
        self._reset_deadline(shard_id)
        if forced:
            cause = "forced"
        elif len(batch) >= self.max_batch_size:
            cause = "size"
        else:
            cause = "delay"
        self.flushes[cause][shard_id] += 1
        return batch

    def nonempty_shards(self) -> List[int]:
        return [shard_id for shard_id, queue in enumerate(self._queues) if queue]
