"""The flush loop: decides *when* shards flush and dispatches the work.

Before this module existed the engine flushed due queues as a side effect of
``submit()``; the :class:`Scheduler` owns that loop instead.  Each call to
:meth:`poll` runs one *round*: collect the shards whose queues are due at the
current clock time, hand one flush task per shard to the
:class:`~repro.serving.executor.FlushExecutor`, and wait for all of them (a
barrier — no flush from round N+1 can overlap round N, which is what keeps
concurrent execution deterministic per shard and lets a ``ManualClock`` stand
still within a round).

``flush_on_submit`` preserves the old ergonomic default: a submit window
polls whenever some shard's flush time has come, and once before returning,
so size-triggered batches flush immediately.  Open-loop benchmarks turn it
off and drive :meth:`poll` themselves to let queues actually build up (the
admission-control scenarios).

Rounds are crash-safe: the engine's ``_flush`` isolates worker failures
(retry, failover, failing a dark shard — see :mod:`repro.serving.engine`), so a
raising replica fails only its own batch and the round's other shards
commit normally.  The executors still settle the whole round before
propagating an error, but with the fault-tolerant engine that path is a
backstop, not the contract.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from .batcher import MicroBatcher
from .clock import Clock
from .executor import FlushExecutor

__all__ = ["Scheduler", "DrainTimeout"]


class DrainTimeout(TimeoutError):
    """``drain(timeout=...)`` expired with requests still pending.

    Carries a ``snapshot`` dict (queue depths, in-flight flushes, terminal
    counts — filled in by the engine) so the caller can see exactly what was
    still wedged instead of a bare timeout.  The server remains usable: the
    pending requests stay queued and a later ``drain()`` can finish them.
    """

    def __init__(self, message: str, snapshot: Optional[dict] = None) -> None:
        super().__init__(message)
        self.snapshot = dict(snapshot or {})


class Scheduler:
    """Drives flush rounds over a :class:`MicroBatcher` via a pluggable executor."""

    def __init__(
        self,
        batcher: MicroBatcher,
        clock: Clock,
        flush: Callable[[int, bool], int],
        executor: FlushExecutor,
        flush_on_submit: bool = True,
        supervise: Optional[Callable[[], int]] = None,
    ) -> None:
        self.batcher = batcher
        self.clock = clock
        self._flush = flush
        self.executor = executor
        self.flush_on_submit = bool(flush_on_submit)
        self._supervise = supervise
        self.rounds = 0

    # -- the loop ---------------------------------------------------------------

    def poll(self) -> int:
        """Run one round: flush every shard whose queue is due right now."""
        due = self.batcher.due_shards(self.clock.now())
        return self._run_round(due, forced=False)

    def drain(self, deadline: Optional[float] = None) -> int:
        """Force-flush rounds until no request is pending (stream shutdown).

        ``deadline`` is an absolute ``time.monotonic()`` stamp: a pathological
        fault plan (every replica hanging, retries re-queueing work) can
        otherwise spin this loop forever.  Past the deadline a
        :class:`DrainTimeout` is raised with the work left standing — the
        engine enriches it with a full ledger snapshot.
        """
        flushed = 0
        while self.batcher.pending:
            if deadline is not None and time.monotonic() >= deadline:
                raise DrainTimeout(
                    f"drain deadline passed with {self.batcher.pending} request(s) pending"
                )
            flushed += self._run_round(self.batcher.nonempty_shards(), forced=True)
        return flushed

    def _run_round(self, shard_ids: List[int], forced: bool) -> int:
        if not shard_ids:
            return 0
        self.rounds += 1
        flushed = sum(
            self.executor.map(lambda shard_id: self._flush(shard_id, forced), shard_ids)
        )
        if self._supervise is not None:
            # Supervision ticks at round barriers: the round's flush tasks
            # have all settled, so a replica rebuilt here can never have a
            # same-round attempt racing its swap (off-round attempts hit
            # the retired corpse and fail into the retry path).
            self._supervise()
        return flushed

    # -- lifecycle ---------------------------------------------------------------

    def shutdown(self) -> None:
        self.executor.shutdown()
