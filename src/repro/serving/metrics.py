"""The serving plane's metric schema and its export-time pull.

Every count lives in the object where its event happens: the engine (terminal
requests, retries, failovers), the batcher (flush causes), the scheduler
(rounds), the :class:`~repro.serving.replicas.ReplicaSet` (failures, deaths,
the heal log), the fault plan (injected faults) and the caches.
``ServerStats`` reads those owners directly, so its ledger balances in every
telemetry mode.  :class:`ServingMetrics` registers the families and
:meth:`ServingMetrics.collect` copies the owners' counts into the counter
and gauge families just before each export — so a scrape and ``render()``
read the same numbers.  Only histograms (latency, queue wait, batch size,
stage seconds) are observed on the hot path; their children are resolved
once at build time.  With ``telemetry="off"`` the registry is the null
registry and every histogram child is the shared no-op metric.

Naming follows Prometheus conventions: ``*_total`` counters,
``*_seconds`` histograms, base units, labels for the dimensions that fan out
(``shard``, ``replica``, ``status``, ``cause``, ``kind``, ``stage``).
"""

from __future__ import annotations

from ..telemetry import default_latency_buckets

__all__ = ["ServingMetrics"]

#: Batch sizes are small integers; a tighter log grid than the latency
#: default keeps single-request and full batches in distinct buckets.
_BATCH_EDGES = default_latency_buckets(lo=1.0, hi=4096.0, per_decade=6)


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
        )
        self.class_queue_wait = {
            str(name): class_queue_wait.labels(str(name)) for name in class_names
        }

        latency = registry.histogram(
            "serving_request_latency_seconds",
            "Submit-to-completion latency of completed requests",
            labels=("shard",),
        )
        self.latency = [latency.labels(shard) for shard in shards]

        queue_wait = registry.histogram(
            "serving_queue_wait_seconds",
            "Time requests spent queued before their batch was popped",
            labels=("shard",),
        )
        self.queue_wait = [queue_wait.labels(shard) for shard in shards]

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

    def collect(self, server) -> None:
        """The pull hook run before every export: copy each count from its
        owner into the counter and gauge families."""
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
