"""The server's front door: request handles, request classes, async ingress.

Three pieces turn the synchronous ``submit()`` of PR 3 into an overload-proof
ingress layer:

:class:`RequestHandle`
    The future-style return value of :meth:`InferenceServer.submit`: callers
    get ``result(timeout=)`` / ``done`` / ``status`` instead of
    polling ``drain()`` and inspecting a raw record.  Non-completed terminal
    states map to typed exceptions (:class:`RequestRejected`,
    :class:`RequestShed`, :class:`RequestExpired`, :class:`RequestFailed` —
    all ``RuntimeError`` subclasses, so pre-handle error handling keeps
    working).  Handles are awaitable, so ``await server.submit(node)`` works
    from asyncio when the background ingress thread is running.

Request classes
    Every request carries a *class* (``premium`` / ``standard`` /
    ``backfill`` by default) whose weight drives admission: batches pop
    heaviest-class-first with deadline-earliest-first inside a class, and
    overload shedding evicts the lightest class first.  Under 2x overload
    backfill sheds while premium p99 stays bounded — the FIFO-blind
    ``shed_oldest`` of PR 3 becomes class-aware without changing its
    single-class behaviour.

:class:`FrontDoor`
    A background daemon thread that drives the scheduler's flush rounds, so
    requests submitted from any thread (or an event loop) land *during*
    rounds instead of only at the submit/drain barriers.  Enabled with
    ``ServingConfig(ingress="thread")``; ``submit()`` then just enqueues and
    wakes the pump, and ``handle.result()`` blocks until the pump serves the
    request — no explicit ``drain()`` needed.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, Iterable, Mapping, Optional, Tuple, Union

from .batcher import COMPLETED, EXPIRED, FAILED, PENDING, REJECTED, SHED, InferenceRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import InferenceServer

__all__ = [
    "RequestHandle",
    "FrontDoor",
    "RequestError",
    "RequestRejected",
    "RequestShed",
    "RequestExpired",
    "RequestFailed",
    "RequestPending",
    "DEFAULT_REQUEST_CLASSES",
    "normalize_request_classes",
]

#: Default admission classes: weight orders both batch admission (heavier
#: first) and shed-victim selection (lighter first).  The absolute values
#: only matter relative to each other.
DEFAULT_REQUEST_CLASSES: Tuple[Tuple[str, float], ...] = (
    ("premium", 4.0),
    ("standard", 2.0),
    ("backfill", 1.0),
)

ClassSpec = Union[Mapping[str, float], Iterable[Tuple[str, float]]]


def normalize_request_classes(classes: ClassSpec) -> Tuple[Tuple[str, float], ...]:
    """Normalise a ``{name: weight}`` mapping (or pair iterable) to the
    tuple-of-pairs form stored on the frozen config."""
    if isinstance(classes, Mapping):
        pairs = tuple((str(name), float(weight)) for name, weight in classes.items())
    else:
        pairs = tuple((str(name), float(weight)) for name, weight in classes)
    return pairs


# -- terminal-state exception mapping ------------------------------------------


class RequestError(RuntimeError):
    """A request did not complete (terminal non-completed state, or still
    pending where waiting cannot help).

    Subclasses ``RuntimeError`` so code written against the pre-handle API
    (``pytest.raises(RuntimeError, match="rejected")`` and kin) still
    matches; ``.request_id`` and ``.status`` identify the request.
    """

    def __init__(self, request: InferenceRequest, message: Optional[str] = None) -> None:
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

    def __init__(self, request: InferenceRequest) -> None:
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


class RequestHandle:
    """Future-style view of one submitted request.

    Wraps the engine-owned :class:`InferenceRequest` record (reachable as
    :attr:`request`).  All state reads are lock-free snapshots of the
    record; :meth:`result` waits on the record's completion event when a
    background ingress thread is running.  The event is created by the first
    waiter, so requests nobody waits on never build one.
    """

    __slots__ = ("_request", "_server")

    def __init__(self, request: InferenceRequest, server: Optional["InferenceServer"] = None) -> None:
        self._request = request
        self._server = server

    # -- identity / state snapshots --------------------------------------------

    @property
    def request(self) -> InferenceRequest:
        """The underlying record — the old ``submit()`` return shape."""
        return self._request

    @property
    def request_id(self) -> int:
        return self._request.request_id

    @property
    def node(self) -> int:
        return self._request.node

    @property
    def shard_id(self) -> int:
        return self._request.shard_id

    @property
    def request_class(self) -> str:
        return self._request.request_class

    @property
    def status(self) -> str:
        return self._request.status

    @property
    def retries(self) -> int:
        return self._request.retries

    @property
    def worker_id(self) -> Optional[int]:
        return self._request.worker_id

    @property
    def batch_size(self) -> Optional[int]:
        return self._request.batch_size

    @property
    def prediction(self) -> Optional[int]:
        return self._request.prediction

    @property
    def enqueue_time(self) -> float:
        return self._request.enqueue_time

    @property
    def deadline(self) -> Optional[float]:
        return self._request.deadline

    @property
    def completion_time(self) -> Optional[float]:
        return self._request.completion_time

    @property
    def latency(self) -> float:
        return self._request.latency

    @property
    def completed(self) -> bool:
        return self._request.status == COMPLETED

    @property
    def done(self) -> bool:
        """Terminal-state flag — a plain ``bool``, like ``InferenceRequest.done``."""
        return self._request.status != PENDING

    # -- future protocol ---------------------------------------------------------

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the request is terminal (or ``timeout`` wall seconds
        pass); returns the terminal flag without raising."""
        request = self._request
        if request.status != PENDING:
            return True
        if self._server is None:
            return False
        event = self._server._completion_event(request)
        if event is not None:
            event.wait(timeout)
        return request.status != PENDING

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
        request = self._request
        if request.status == COMPLETED:
            return int(request.prediction)
        raise _EXCEPTION_BY_STATUS[request.status](request)

    def exception(self, timeout: Optional[float] = None) -> Optional[RequestError]:
        """The mapped terminal exception, or ``None`` when completed.

        Waits exactly like :meth:`result`.
        """
        self._wait_terminal(timeout)
        request = self._request
        if request.status == COMPLETED:
            return None
        return _EXCEPTION_BY_STATUS[request.status](request)

    def _wait_terminal(self, timeout: Optional[float]) -> None:
        request = self._request
        if request.status != PENDING:
            return
        server = self._server
        if server is None or (timeout is None and not server.has_background_ingress):
            raise RequestPending(request)
        event = server._completion_event(request)
        if event is not None and not event.wait(timeout) and request.status == PENDING:
            raise TimeoutError(
                f"request {request.request_id} still pending after {timeout:.3f}s"
            )

    def __await__(self):
        """``await server.submit(node)`` from asyncio (needs ``ingress="thread"``).

        The wait happens on the loop's default executor, so the event loop
        itself never blocks on the completion event.
        """
        import asyncio

        loop = asyncio.get_running_loop()
        return loop.run_in_executor(None, self.result).__await__()

    def __repr__(self) -> str:  # pragma: no cover - debug surface
        request = self._request
        return (
            f"RequestHandle(id={request.request_id}, node={request.node}, "
            f"class={request.request_class!r}, status={request.status!r})"
        )


class FrontDoor:
    """Background ingress pump: a daemon thread drives flush rounds.

    ``submit()`` wakes the pump instead of flushing inline, so arrivals from
    any thread (or an asyncio loop via ``run_in_executor``) land in queues
    *while* a round is in flight and are picked up by the next poll — the
    round barrier stops gating ingress.  While work is pending the pump
    re-polls every :attr:`POLL_INTERVAL` wall seconds (delay-triggered
    flushes need a heartbeat); with empty queues it parks on the wake event and
    costs nothing.

    Each poll also ticks the :class:`~repro.serving.replicas.ReplicaSet`
    (via ``InferenceServer.poll``), so under background ingress a dead
    replica is rebuilt by the pump thread between rounds — self-healing
    needs no extra thread of its own.
    """

    POLL_INTERVAL = 0.001

    def __init__(self, server: "InferenceServer") -> None:
        self._server = server
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.polls = 0  # rounds the pump attempted (telemetry for tests)

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        if self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="serving-frontdoor", daemon=True
        )
        self._thread.start()

    def notify(self) -> None:
        """Called by a submit window when an enqueue may need a flush: wake
        the pump now."""
        self._wake.set()

    def _run(self) -> None:
        while not self._stop.is_set():
            self._wake.clear()
            try:
                self._server.poll()
                self.polls += 1
            except Exception:  # noqa: BLE001 - the pump must survive
                # _flush is crash-safe; anything reaching here is a
                # scheduler-level bug, and dying would strand pending
                # requests without a terminal state.  Keep pumping.
                pass
            if self._server.batcher.pending:
                self._wake.wait(self.POLL_INTERVAL)
            else:
                self._wake.wait()

    def stop(self) -> None:
        """Quiesce the pump (idempotent); pending requests stay queued for
        the caller's drain."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        self._wake.set()
        thread.join()
        self._thread = None


def class_weight_map(classes: Tuple[Tuple[str, float], ...]) -> Dict[str, float]:
    """Pair-tuple form (as stored on the config) back to a lookup dict."""
    return dict(classes)
