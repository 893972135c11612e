"""Online inference serving engine.

Turns "predict the label of node X now" into efficient execution on a
trained (optionally block-circulant-compressed) GNN.  There is one serving
mode, exact: every answer equals offline ``full_forward`` for that node.

* :class:`MicroBatcher` coalesces queued requests into one batch per flush
  (``max_batch_size`` / ``max_delay``, driven by a pluggable :class:`Clock`);
* :func:`build_shards` / :class:`ShardWorker` split the graph into
  partitions with K-hop halos so each worker serves its core nodes from its
  own slice of memory, exactly reproducing full-graph inference results;
* each worker memoises per-layer hidden states in one :class:`HaloStore`
  (a slab per layer indexed by node id, no eviction), invalidated by the
  model's ``weight_signature`` when training bumps ``Parameter.version``:
  with the halo tier on, one store is shared by every worker, so a row
  computed by any worker is written once and gathered, not recomputed, by
  the others; with it off, each worker has a private store
  (``cache_capacity > 0``) or none.  Every flush recomputes its misses over
  a freshly built :class:`~repro.graph.Restriction` plan;
* a :class:`Scheduler` owns the flush loop, dispatching one flush task per
  due shard through a pluggable :class:`FlushExecutor` —
  :class:`SerialExecutor` (deterministic, default) or
  :class:`ConcurrentExecutor` (thread pool; NumPy kernels release the GIL so
  shard flushes genuinely overlap);
* admission control bounds each shard queue (``max_queue_depth``) with
  the ``reject`` or ``shed_oldest`` overload policy, and deadline-aware
  expiry guarantees every request terminates as exactly one of
  ``completed`` / ``rejected`` / ``shed`` / ``expired`` / ``failed``;
* ``submit()`` returns the request's one :class:`InferenceRequest` object
  (``RequestHandle`` is a second name for it): the engine's record and the
  caller's future (``result(timeout=)``, ``done``, typed terminal
  exceptions, awaitable).  The front door (:mod:`repro.serving.frontdoor`)
  tags every request with a weighted *request class*
  (``premium``/``standard``/``backfill``) so admission pops
  heaviest-class/deadline-earliest first and overload sheds the lightest
  class first, and — with ``ingress="thread"`` — runs a background
  :class:`FrontDoor` pump so arrivals land during flush rounds;
* the fault-tolerance layer keeps that guarantee under replica failure: a
  seedable :class:`FaultPlan` injects deterministic raise/hang/die/kill/flap
  faults, a failed batch retries at once on a sibling replica (up to
  ``max_retries``; requests past their deadline expire), and a shard with
  zero dispatchable replicas fails its batch;
* one :class:`ReplicaSet` owns every replica and its healthy → suspect →
  dead state machine: it picks the replica for each attempt, never
  dispatches a dead one, and on the next scheduler tick rebuilds each dead
  replica from the shard spec (fresh :class:`ShardWorker` under a bumped
  epoch, reading the rows the fleet already put in the shared
  :class:`HaloStore`) — also the machinery behind operator rolling restarts
  (``InferenceServer.restart_replica``);
* :class:`InferenceServer` ties it together and exposes :class:`ServerStats`
  (p50/p95/p99/p99.9 latency, cache hit rate, per-shard load, overload
  counters, fault/failover counters, executor concurrency) plus a perfmodel
  bridge (:func:`estimate_shard_request_cycles`) pricing requests in
  accelerator cycles per shard;
* observability rides on :mod:`repro.telemetry`: the engine owns a
  :class:`~repro.telemetry.Telemetry` handle whose
  :class:`~repro.telemetry.MetricsRegistry` exports every serving count and
  histogram (:class:`ServingMetrics` names them), and — in
  ``telemetry="trace"`` mode — a :class:`~repro.telemetry.RequestTracer`
  reads per-request spans (submit → queue → terminal state) from the
  request ledger's settled rows and records dispatch attempts with
  replica-state/fault detail per batch; all of it exports as Prometheus
  text, JSON snapshots, or Chrome ``traceEvents``.  Each count lives with
  the object whose event it counts; ``ServerStats`` reads those owners and
  each export copies them into the registry, so both show the same numbers
  in every telemetry mode.
"""

from .batcher import TERMINAL_STATUSES, InferenceRequest, MicroBatcher
from .cache import CacheStats, HaloStore
from .clock import Clock, ManualClock, SystemClock
from .config import INGRESS_MODES, ServingConfig
from .engine import InferenceServer
from .executor import ConcurrentExecutor, FlushExecutor, SerialExecutor, make_executor
from .faults import (
    FAULT_KINDS,
    FaultDecision,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    ReplicaDead,
    ReplicaHung,
)
from .frontdoor import (
    DEFAULT_REQUEST_CLASSES,
    FrontDoor,
    RequestError,
    RequestExpired,
    RequestFailed,
    RequestHandle,
    RequestPending,
    RequestRejected,
    RequestShed,
)
from .metrics import ServingMetrics
from .procplane import (
    ProcessDead,
    ProcessPlane,
    ProcessTimeout,
    ProcessWorkerHandle,
    SharedHaloStore,
    SharedSlabArena,
)
from .replicas import ReplicaSet
from .scheduler import DrainTimeout, Scheduler
from .shard import GraphShard, build_shards, expand_neighborhood
from .stats import ServerStats, WorkerLoad, estimate_shard_request_cycles
from .timing import STAGES, StageTimer, merge_stage_totals
from .worker import ShardWorker, WorkerRetired

__all__ = [
    "Clock",
    "SystemClock",
    "ManualClock",
    "CacheStats",
    "HaloStore",
    "StageTimer",
    "STAGES",
    "merge_stage_totals",
    "InferenceRequest",
    "TERMINAL_STATUSES",
    "MicroBatcher",
    "FlushExecutor",
    "SerialExecutor",
    "ConcurrentExecutor",
    "make_executor",
    "Scheduler",
    "GraphShard",
    "build_shards",
    "expand_neighborhood",
    "ShardWorker",
    "ServingConfig",
    "INGRESS_MODES",
    "DEFAULT_REQUEST_CLASSES",
    "FrontDoor",
    "RequestHandle",
    "RequestError",
    "RequestRejected",
    "RequestShed",
    "RequestExpired",
    "RequestFailed",
    "RequestPending",
    "FaultSpec",
    "FaultDecision",
    "FaultPlan",
    "FAULT_KINDS",
    "InjectedFault",
    "ReplicaHung",
    "ReplicaDead",
    "WorkerRetired",
    "ReplicaSet",
    "ProcessDead",
    "ProcessTimeout",
    "ProcessPlane",
    "ProcessWorkerHandle",
    "SharedSlabArena",
    "SharedHaloStore",
    "DrainTimeout",
    "InferenceServer",
    "ServingMetrics",
    "ServerStats",
    "WorkerLoad",
    "estimate_shard_request_cycles",
]
