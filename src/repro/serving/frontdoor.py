"""The server's front door: request classes and async ingress.

Two pieces turn a synchronous ``submit()`` into an overload-proof ingress
layer (the request futures ``submit()`` returns, and their typed
:class:`RequestError` exceptions, live in :mod:`repro.serving.batcher` and
are re-exported here):

Request classes
    Every request carries a *class* from :data:`DEFAULT_REQUEST_CLASSES`
    (``premium`` / ``standard`` / ``backfill``; ``standard`` when the caller
    names none) whose weight drives admission: batches pop
    heaviest-class-first with deadline-earliest-first inside a class, and
    overload shedding evicts the lightest class first.  Under 2x overload
    backfill sheds while premium p99 stays bounded — a FIFO-blind
    ``shed_oldest`` becomes class-aware without changing its single-class
    behaviour.

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
from typing import TYPE_CHECKING, Optional, Tuple

from .batcher import (
    RequestError,
    RequestExpired,
    RequestFailed,
    RequestHandle,
    RequestPending,
    RequestRejected,
    RequestShed,
)

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
]

#: The admission classes: weight orders both batch admission (heavier
#: first) and shed-victim selection (lighter first).  The absolute values
#: only matter relative to each other.
DEFAULT_REQUEST_CLASSES: Tuple[Tuple[str, float], ...] = (
    ("premium", 4.0),
    ("standard", 2.0),
    ("backfill", 1.0),
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

