"""The serving plane's metric schema and its export-time pull.

Every count lives in the object where its event happens: the engine (terminal
requests, retries, failovers), the batcher (flush causes), the scheduler
(rounds), the :class:`~repro.serving.replicas.ReplicaSet` (failures, deaths,
the heal log), the fault plan (injected faults) and the caches.
``ServerStats`` reads those owners directly, so its ledger balances in every
telemetry mode.  :class:`ServingMetrics` registers the families and
:meth:`ServingMetrics.collect` copies the owners' counts into the counter
and gauge families just before each export — so a scrape and ``render()``
read the same numbers.

The request histograms (queue wait per shard and per class, latency of
completed requests per shard) are not observed per batch either: they are
binned from the request ledger's pop, completion and enqueue columns.  The
engine folds a ledger block once every row it has handed out has settled
(:meth:`ServingMetrics.fold`, into pending bucket counts, so nothing keeps
the block), and :meth:`ServingMetrics.collect` folds the rows popped or
settled since in the blocks still in use, then adds the pending counts to
the histograms (:meth:`ServingMetrics.publish`).  So, like the counters,
the request histograms are current after an export or ``snapshot()`` — and
then equal what observing every popped and every completed batch gives.
Only the batch-size and stage-seconds histograms are observed on the hot
path, per flushed batch; every histogram child is resolved once at build
time.  With ``telemetry="off"`` the registry is the null registry, every
histogram child is the shared no-op metric, and nothing is folded.

Naming follows Prometheus conventions: ``*_total`` counters,
``*_seconds`` histograms, base units, labels for the dimensions that fan out
(``shard``, ``replica``, ``status``, ``cause``, ``kind``, ``stage``).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..telemetry import default_latency_buckets

__all__ = ["ServingMetrics"]

#: Batch sizes are small integers; a tighter log grid than the latency
#: default keeps single-request and full batches in distinct buckets.
_BATCH_EDGES = default_latency_buckets(lo=1.0, hi=4096.0, per_decade=6)

#: The edges of the three request histograms, which the ledger fold bins
#: together.
_REQUEST_EDGES = default_latency_buckets()
_BUCKETS = len(_REQUEST_EDGES) + 1


class ServingMetrics:
    """Every serving metric family; histogram children resolved per shard."""

    def __init__(self, registry, num_shards: int, class_names=("standard",)) -> None:
        self.registry = registry
        shards = [str(shard_id) for shard_id in range(num_shards)]

        self.requests = registry.counter(
            "serving_requests_total",
            "Requests by owning shard and terminal status",
            labels=("shard", "status"),
        )
        self.class_requests = registry.counter(
            "serving_class_requests_total",
            "Requests by admission class and terminal status",
            labels=("request_class", "status"),
        )

        class_queue_wait = registry.histogram(
            "serving_class_queue_wait_seconds",
            "Queue wait by admission class (the signal class weights act on)",
            labels=("request_class",),
            edges=_REQUEST_EDGES,
        )
        self.class_queue_wait = {
            str(name): class_queue_wait.labels(str(name)) for name in class_names
        }

        latency = registry.histogram(
            "serving_request_latency_seconds",
            "Submit-to-completion latency of completed requests",
            labels=("shard",),
            edges=_REQUEST_EDGES,
        )
        self.latency = [latency.labels(shard) for shard in shards]

        queue_wait = registry.histogram(
            "serving_queue_wait_seconds",
            "Time requests spent queued before their batch was popped",
            labels=("shard",),
            edges=_REQUEST_EDGES,
        )
        self.queue_wait = [queue_wait.labels(shard) for shard in shards]

        # The ledger fold bins into pending counts, one row of buckets per
        # slot, in groups of one slot per shard: the queue waits of each
        # class (then of a class without a child), the latencies, and one
        # slot for the values a fold does not take.
        classes = len(self.class_queue_wait)
        self._discard = (classes + 2) * num_shards
        self._bases = {
            name: np.array([[index * num_shards], [(classes + 1) * num_shards]])
            for index, name in enumerate(self.class_queue_wait)
        }
        self._other_class = np.array([[classes * num_shards], [(classes + 1) * num_shards]])
        self._pending = np.zeros((self._discard + 1) * _BUCKETS, dtype=np.int64)
        self._pending_sums = np.zeros(self._discard + 1)

        batch_size = registry.histogram(
            "serving_batch_size",
            "Executed batch sizes per flush",
            labels=("shard",),
            edges=_BATCH_EDGES,
        )
        self.batch_size = [batch_size.labels(shard) for shard in shards]

        self.flushes = registry.counter(
            "serving_flushes_total",
            "Batch flushes by shard and trigger cause",
            labels=("shard", "cause"),
        )
        self.retries = registry.counter(
            "serving_retries_total",
            "Request-attempts retried after a dispatch failure",
            labels=("shard",),
        )
        self.failovers = registry.counter(
            "serving_failovers_total",
            "Batches completed on a sibling replica after a failure",
            labels=("shard",),
        )
        self.retry_attempts = registry.counter(
            "serving_retry_attempts_total",
            "Batch retry attempts actually performed, engine-wide",
        )
        self.supervisor_restarts = registry.counter(
            "serving_supervisor_restarts_total",
            "Replica rebuilds (on death or operator restart), per replica slot",
            labels=("replica",),
        )
        self.replica_failures = registry.counter(
            "serving_replica_failures_total",
            "Dispatch attempts that failed, per replica",
            labels=("replica",),
        )
        self.replica_deaths = registry.counter(
            "serving_replica_deaths_total",
            "Replicas that reached the consecutive-failure threshold, per replica",
            labels=("replica",),
        )
        self.faults = registry.counter(
            "serving_faults_injected_total",
            "Faults the plan actually fired, by kind",
            labels=("kind",),
        )
        self.worker_failures = registry.counter(
            "serving_worker_failures_total",
            "Dispatch attempts that raised (real or injected), engine-wide",
        )
        self.flush_rounds = registry.counter(
            "serving_flush_rounds_total",
            "Flush rounds the scheduler dispatched",
        )

        #: per-(stage, worker) flush stage time; children are bound into
        #: each worker's StageTimer by the engine.
        self.stage_seconds = registry.histogram(
            "serving_stage_seconds",
            "Per-flush wall-clock seconds by flush stage and worker",
            labels=("stage", "worker"),
        )

        self.cache_gauge = registry.gauge(
            "serving_cache_events",
            "Embedding-cache counters summed over workers, by event",
            labels=("event",),
        )
        self.halo_gauge = registry.gauge(
            "serving_halo_events",
            "Shared halo-tier counters, by event",
            labels=("event",),
        )
        self.executor_peak = registry.gauge(
            "serving_executor_peak_concurrency",
            "Maximum flush tasks observed in flight simultaneously",
        )
        self.queue_depth = registry.gauge(
            "serving_queue_depth",
            "Requests waiting in each shard queue at collection time",
            labels=("shard",),
        )

    def fold(self, blocks: Iterable) -> None:
        """Bin what the request histograms have not taken yet from the
        ledger rows of ``blocks``
        (:meth:`~repro.serving.batcher.LedgerBlock.unfolded`) into pending
        counts: queue waits by class and shard, completed-request latencies
        by shard.  The three families share their bucket edges, so a
        block's rows are binned with one ``searchsorted`` and one
        ``bincount``.  :meth:`publish` adds the pending counts to the
        histograms.  Called under the engine lock.
        """
        pending, sums = self._pending, self._pending_sums
        for block in blocks:
            values, shard, new = block.unfolded()
            if not len(shard):
                continue
            slots = np.where(
                new, shard + self._bases.get(block.request_class, self._other_class), self._discard
            )
            pending += np.bincount(
                (slots * _BUCKETS + _REQUEST_EDGES.searchsorted(values)).ravel(),
                minlength=len(pending),
            )
            sums += np.bincount(slots.ravel(), weights=values.ravel(), minlength=len(sums))

    def publish(self) -> None:
        """Add the pending counts to the request histograms and clear them:
        per shard the queue waits of every class, per class the queue waits
        of every shard, per shard the latencies.  Called under the engine
        lock."""
        shards = len(self.queue_wait)
        waits = self._discard - shards  # the slots before the latencies'
        counts = self._pending.reshape(-1, _BUCKETS)
        observed = counts.sum(axis=1)
        sums = self._pending_sums
        if observed[: self._discard].any():
            wait_counts = counts[:waits].reshape(-1, shards, _BUCKETS)
            wait_observed = observed[:waits].reshape(-1, shards)
            wait_sums = sums[:waits].reshape(-1, shards)
            for shard_id, child in enumerate(self.queue_wait):
                _add(child, wait_counts[:, shard_id].sum(axis=0),
                     wait_sums[:, shard_id].sum(), wait_observed[:, shard_id].sum())
            for index, child in enumerate(self.class_queue_wait.values()):
                _add(child, wait_counts[index].sum(axis=0),
                     wait_sums[index].sum(), wait_observed[index].sum())
            for shard_id, child in enumerate(self.latency):
                slot = waits + shard_id
                _add(child, counts[slot], sums[slot], observed[slot])
        self._pending[:] = 0
        self._pending_sums[:] = 0.0

    def collect(self, server) -> None:
        """The pull hook run before every export: fold the ledger rows the
        request histograms have not taken yet, and copy each count from its
        owner into the counter and gauge families."""
        server._fold_ledger()
        shards = [str(shard_id) for shard_id in range(len(server.shards))]
        for status, counts in server._status_counts.items():
            for shard, count in zip(shards, counts):
                self.requests.labels(shard, status).set(count)
        for name, counts in server._class_counts.items():
            for status, count in counts.items():
                self.class_requests.labels(name, status).set(count)
        for cause, counts in server.batcher.flushes.items():
            for shard, count in zip(shards, counts):
                self.flushes.labels(shard, cause).set(count)
        for shard, count in zip(shards, server._retried):
            self.retries.labels(shard).set(count)
        for shard, count in zip(shards, server._failovers):
            self.failovers.labels(shard).set(count)
        self.retry_attempts.labels().set(server._retry_attempts)

        replicas = server.replicas
        rebuilds = [0] * len(replicas.failures)
        for event in replicas.event_log():
            rebuilds[event["worker"]] += 1
        for family, counts in (
            (self.supervisor_restarts, rebuilds),
            (self.replica_failures, replicas.failures),
            (self.replica_deaths, replicas.deaths),
        ):
            for worker_id, count in enumerate(counts):
                family.labels(str(worker_id)).set(count)
        if server.faults is not None:
            for kind, count in server.faults.injected.items():
                self.faults.labels(kind).set(count)
        self.worker_failures.labels().set(sum(replicas.failures))
        self.flush_rounds.labels().set(server.scheduler.rounds)

        cache, halo = server._fleet_counters()
        for event, value in cache.as_dict().items():
            self.cache_gauge.labels(event).set(value)
        if server.halo_store is not None:
            for event, value in halo.as_dict().items():
                self.halo_gauge.labels(event).set(value)
        self.executor_peak.labels().set(server.executor.peak_concurrency)
        for shard_id, shard in enumerate(shards):
            self.queue_depth.labels(shard).set(server.batcher.queue_depth(shard_id))


def _add(child, counts: np.ndarray, total, observed) -> None:
    if observed:
        child.add_counts(counts, float(total), int(observed))
