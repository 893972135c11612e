"""The serving plane's metric schema, pre-resolved for the hot path.

One :class:`ServingMetrics` instance per server registers every metric family
the engine, batcher, replica set, fault plan and workers emit, and
resolves the labelled children **once at build time** — the hot path then
increments plain child objects (one lock + one add each) instead of paying a
label lookup per event.  With ``telemetry="off"`` the registry is the null
registry and every child here is the shared no-op metric, so the same engine
code runs with zero accounting.

Naming follows Prometheus conventions: ``*_total`` counters,
``*_seconds`` histograms, base units, labels for the dimensions that fan out
(``shard``, ``replica``, ``status``, ``cause``, ``kind``, ``stage``).
"""

from __future__ import annotations

from ..telemetry import default_latency_buckets

__all__ = ["ServingMetrics"]

#: Terminal statuses the per-shard request counter fans out over (matches
#: :data:`repro.serving.batcher.TERMINAL_STATUSES`; imported lazily to keep
#: this module importable on its own).
_STATUSES = ("completed", "rejected", "shed", "expired", "failed")

#: Flush causes of :class:`~repro.serving.batcher.MicroBatcher.pop_batch`.
_FLUSH_CAUSES = ("size", "delay", "forced")

#: Batch sizes are small integers; a tighter log grid than the latency
#: default keeps single-request and full batches in distinct buckets.
_BATCH_EDGES = default_latency_buckets(lo=1.0, hi=4096.0, per_decade=6)


class ServingMetrics:
    """Every serving metric family, with per-shard/replica children resolved."""

    def __init__(
        self, registry, num_shards: int, worker_ids, class_names=("standard",)
    ) -> None:
        self.registry = registry
        shards = [str(shard_id) for shard_id in range(num_shards)]

        requests = registry.counter(
            "serving_requests_total",
            "Requests by owning shard and terminal status",
            labels=("shard", "status"),
        )
        #: status -> per-shard child list, indexed by shard id.
        self.requests = {
            status: [requests.labels(shard, status) for shard in shards]
            for status in _STATUSES
        }

        class_requests = registry.counter(
            "serving_class_requests_total",
            "Requests by admission class and terminal status",
            labels=("request_class", "status"),
        )
        #: class name -> {status -> child}; the per-class ledger.
        self.class_requests = {
            str(name): {
                status: class_requests.labels(str(name), status)
                for status in _STATUSES
            }
            for name in class_names
        }

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

        flushes = registry.counter(
            "serving_flushes_total",
            "Batch flushes by shard and trigger cause",
            labels=("shard", "cause"),
        )
        self.flushes = {
            cause: [flushes.labels(shard, cause) for shard in shards]
            for cause in _FLUSH_CAUSES
        }

        retries = registry.counter(
            "serving_retries_total",
            "Request-attempts retried after a dispatch failure",
            labels=("shard",),
        )
        self.retries = [retries.labels(shard) for shard in shards]

        failovers = registry.counter(
            "serving_failovers_total",
            "Batches completed on a sibling replica after a failure",
            labels=("shard",),
        )
        self.failovers = [failovers.labels(shard) for shard in shards]

        retry_attempts = registry.counter(
            "serving_retry_attempts_total",
            "Batch retry attempts actually performed, engine-wide",
        )
        self.retry_attempts = retry_attempts.labels()

        #: per-replica failures, deaths and rebuilds (ReplicaSet sinks).
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

        #: per-kind injected faults (FaultPlan sink).
        self.faults = registry.counter(
            "serving_faults_injected_total",
            "Faults the plan actually fired, by kind",
            labels=("kind",),
        )

        worker_failures = registry.counter(
            "serving_worker_failures_total",
            "Dispatch attempts that raised (real or injected), engine-wide",
        )
        self.worker_failures = worker_failures.labels()

        block = registry.counter(
            "serving_block_waits_total",
            "Condition waits by submitters blocked on a full queue",
        )
        self.block_waits = block.labels()
        self_flushes = registry.counter(
            "serving_block_self_flushes_total",
            "Blocked submitters that force-flushed the shard themselves",
        )
        self.block_self_flushes = self_flushes.labels()

        rounds = registry.counter(
            "serving_flush_rounds_total",
            "Flush rounds the scheduler dispatched",
        )
        self.flush_rounds = rounds.labels()

        #: per-(stage, worker) flush stage time; children are bound into
        #: each worker's StageTimer by the engine.
        self.stage_seconds = registry.histogram(
            "serving_stage_seconds",
            "Per-flush wall-clock seconds by flush stage and worker",
            labels=("stage", "worker"),
        )

        #: mirrored state gauges (filled by the engine's export collector).
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
        ).labels()
        self.queue_depth = registry.gauge(
            "serving_queue_depth",
            "Requests waiting in each shard queue at collection time",
            labels=("shard",),
        )

    # -- ledger reads (ServerStats is a view over these) -------------------------

    def status_total(self, status: str) -> int:
        """Engine-wide terminal count for one status (sum over shards)."""
        return sum(child.value for child in self.requests[status])

    def class_totals(self) -> dict:
        """Per-class terminal counts: ``{class: {status: count}}``."""
        return {
            name: {status: child.value for status, child in children.items()}
            for name, children in self.class_requests.items()
        }

    def retried_total(self) -> int:
        return sum(child.value for child in self.retries)

    def failover_total(self) -> int:
        return sum(child.value for child in self.failovers)

