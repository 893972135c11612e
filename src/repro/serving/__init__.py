"""Online inference serving engine.

Turns "predict the label of node X now" into efficient execution on a
trained (optionally block-circulant-compressed) GNN.  There is one serving
mode, exact: every answer equals offline ``full_forward`` for that node.

* :class:`MicroBatcher` coalesces queued requests into one batch per flush
  (``max_batch_size`` / ``max_delay``, driven by a pluggable :class:`Clock`);
* :func:`build_shards` / :class:`ShardWorker` split the graph into
  partitions with K-hop halos so each worker serves its core nodes from its
  own slice of memory, exactly reproducing full-graph inference results;
* :class:`EmbeddingCache` memoises per-layer hidden states for hot nodes in
  contiguous per-layer slabs (vectorised gather/scatter, exact-LRU
  retention, invalidated by the model's ``weight_signature`` when training
  bumps ``Parameter.version``);
* a shared :class:`HaloStore` exchanges boundary (halo) embeddings between
  shards — a row computed during one shard's flush is gathered, not
  recomputed, by its neighbours — and every flush recomputes its misses
  over a freshly built :class:`~repro.graph.Restriction` plan;
* a :class:`Scheduler` owns the flush loop, dispatching one flush task per
  due shard through a pluggable :class:`FlushExecutor` —
  :class:`SerialExecutor` (deterministic, default) or
  :class:`ConcurrentExecutor` (thread pool; NumPy kernels release the GIL so
  shard flushes genuinely overlap);
* admission control bounds each shard queue (``max_queue_depth``) with
  ``reject`` / ``shed_oldest`` / ``block`` overload policies (``block`` is a
  real condition-variable wait, woken when depth drops), and deadline-aware
  expiry guarantees every request terminates as exactly one of
  ``completed`` / ``rejected`` / ``shed`` / ``expired`` / ``failed``;
* the front door (:mod:`repro.serving.frontdoor`) makes ``submit()`` return
  a :class:`RequestHandle` future (``result(timeout=)``, ``done``, typed
  terminal exceptions, awaitable), tags every request with a weighted
  *request class* (``premium``/``standard``/``backfill`` by default) so
  admission pops heaviest-class/deadline-earliest first and overload sheds
  the lightest class first, and — with ``ingress="thread"`` — runs a
  background :class:`FrontDoor` pump so arrivals land during flush rounds;
* the fault-tolerance layer keeps that guarantee under replica failure: a
  seedable :class:`FaultPlan` injects deterministic raise/hang/die/kill/flap
  faults, a failed batch retries at once on a sibling replica (up to
  ``max_retries``; requests past their deadline expire), and a shard with
  zero dispatchable replicas fails its batch;
* one :class:`ReplicaSet` owns every replica and its healthy → suspect →
  dead state machine: it picks the replica for each attempt, never
  dispatches a dead one, and on the next scheduler tick rebuilds each dead
  replica from the shard spec (fresh :class:`ShardWorker` under a bumped
  epoch, embedding cache pre-warmed from the shared :class:`HaloStore`) —
  also the machinery behind operator rolling restarts
  (``InferenceServer.restart_replica``);
* :class:`InferenceServer` ties it together and exposes :class:`ServerStats`
  (p50/p95/p99/p99.9 latency, cache hit rate, per-shard load, overload
  counters, fault/failover counters, executor concurrency) plus a perfmodel
  bridge (:func:`estimate_shard_request_cycles`) pricing requests in
  accelerator cycles per shard;
* observability rides on :mod:`repro.telemetry`: the engine owns a
  :class:`~repro.telemetry.Telemetry` handle whose
  :class:`~repro.telemetry.MetricsRegistry` holds every serving counter and
  latency histogram (:class:`ServingMetrics` names them), and — in
  ``telemetry="trace"`` mode — a :class:`~repro.telemetry.RequestTracer`
  records per-request span trees (submit → queue → dispatch attempts with
  replica-state/fault detail → terminal state) exportable as Prometheus
  text, JSON snapshots, or Chrome ``traceEvents``.  ``ServerStats`` is a
  *view* over the registry, so the frozen-dataclass API is unchanged.
"""

from .batcher import TERMINAL_STATUSES, InferenceRequest, MicroBatcher
from .cache import CacheStats, EmbeddingCache, HaloStore
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
    "EmbeddingCache",
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
