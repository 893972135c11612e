"""Configuration of the online inference server."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults imports nothing back)
    from .faults import FaultPlan

__all__ = ["ServingConfig", "INGRESS_MODES"]

#: How requests arrive: ``"sync"`` flushes inline from the submitting thread
#: (the deterministic default); ``"thread"`` starts a background
#: :class:`~repro.serving.frontdoor.FrontDoor` pump so submissions land
#: during flush rounds and ``RequestHandle.result()`` can wait.
INGRESS_MODES = ("sync", "thread")


@dataclass(frozen=True, kw_only=True)
class ServingConfig:
    """Knobs of :class:`repro.serving.InferenceServer` (keyword-only).

    All fields must be passed by name; :meth:`validate` runs at construction
    and rejects contradictory knob combinations with one clear error each,
    so misconfiguration fails at build time instead of mid-flush.  Serving
    is always exact: every shard holds the model-depth halo, and served
    predictions equal offline :meth:`repro.models.GNNModel.full_forward`.

    Parameters
    ----------
    num_shards:
        Number of graph partitions; each gets ``num_replicas`` workers.
    max_batch_size, max_delay:
        Micro-batching policy: a shard's queue flushes once it holds
        ``max_batch_size`` requests or its oldest request has waited
        ``max_delay`` (clock) seconds.
    cache_capacity:
        Read only with ``halo_tier=False``: ``0`` means no embedding store
        (every row is recomputed), any positive value gives each worker a
        private :class:`~repro.serving.cache.HaloStore`.  It bounds
        nothing, since a store holds every node.
    halo_tier:
        Build one :class:`~repro.serving.cache.HaloStore` shared by the
        whole server, for any number of workers (one included), and make it
        every worker's only embedding store: each computed row is written
        once and gathered by every worker that needs it (the same shard
        later, a neighbouring shard across the cut, or a sibling replica),
        so no row is computed twice.  Memory: one ``num_nodes x dim`` slab
        per layer, shared server-wide.  Off, each worker reads and writes a
        private store of the same layout (``cache_capacity > 0``) or none.
    partition_method:
        ``"bfs"`` (locality-aware) or ``"hash"`` — see
        :func:`repro.graph.partition_nodes`.
    num_replicas:
        Replicas per shard; batches go round-robin over the dispatchable
        ones.
    executor:
        ``"serial"`` runs flush rounds inline (deterministic, the default);
        ``"concurrent"`` fans one flush task per shard out over a thread
        pool with one thread per shard replica.  NumPy kernels release the
        GIL, so shards genuinely overlap.  ``"process"`` runs each replica
        in a worker process; a call that gets no reply within
        :data:`repro.serving.procplane.CALL_TIMEOUT` seconds kills it.
    max_queue_depth, overload_policy:
        Admission control: each shard queue holds at most ``max_queue_depth``
        waiting requests (``None`` = unbounded).  On a full queue,
        ``"reject"`` turns the new request away, and ``"shed_oldest"`` evicts
        the least-valuable queued request to make room (lightest request
        class of :data:`~repro.serving.frontdoor.DEFAULT_REQUEST_CLASSES`
        first, oldest within the class — plain oldest-first with a single
        class).
    ingress:
        ``"sync"`` (default) flushes inline from the submitting thread —
        deterministic, and what ``ManualClock`` tests drive.  ``"thread"``
        starts a background :class:`~repro.serving.frontdoor.FrontDoor`
        daemon that owns the flush loop: submissions land during rounds,
        ``RequestHandle.result()`` blocks until served, and handles are
        awaitable from asyncio.
    flush_on_submit:
        Poll for due flushes inside every ``submit()`` (the ergonomic
        default).  Open-loop drivers set it ``False`` and call ``poll()``
        themselves so queues actually build up; ignored under
        ``ingress="thread"`` (the pump polls instead).
    default_timeout:
        Deadline in clock seconds applied to every request that does not
        carry its own (``None`` = no deadline).  A request flushed after its
        deadline terminates as ``expired`` instead of being executed.
    fault_plan:
        A :class:`~repro.serving.faults.FaultPlan` injecting deterministic
        replica failures at dispatch time (``None`` = no injection; the
        fault layer then adds no work to the hot path).
    max_retries:
        Failover budget per batch: after the dispatched replica fails, the
        batch is retried at once on a sibling (or, failing that, the same)
        replica up to this many more times before its requests terminate
        ``failed``.  Requests whose deadline has passed by the retry expire
        instead.  A shard with zero dispatchable replicas fails its batch.
    health_failure_threshold:
        Consecutive failures after which a replica is ``dead``
        (:class:`~repro.serving.replicas.ReplicaSet`): it takes no more
        dispatches, and the next ``poll()``/``drain()`` tick rebuilds it in
        place (fresh worker, new epoch; on the shared store it reads the
        rows the fleet already computed, a private store starts empty).
        Fewer failures leave it ``suspect`` but dispatchable, and a success
        makes it ``healthy`` again.
    telemetry, trace_capacity:
        Observability mode (see :data:`repro.telemetry.TELEMETRY_MODES`):
        ``"metrics"`` (default) records labelled counters/histograms into the
        server's :class:`~repro.telemetry.MetricsRegistry`; ``"trace"``
        additionally copies each settled request's ledger row into a
        columnar span ring of ``trace_capacity`` rows, and per-dispatch
        attempt records into a ring of as many entries
        (``InferenceServer.telemetry`` exposes the exporters); ``"off"``
        compiles telemetry out (null registry, no tracer, empty exports).
        ``ServerStats`` reads every count from its owner, so its ledger is
        the same in all three modes.
    seed:
        Seeds partitioning (determinism).
    """

    num_shards: int = 2
    max_batch_size: int = 32
    max_delay: float = 0.002
    cache_capacity: int = 4096
    halo_tier: bool = True
    partition_method: str = "bfs"
    num_replicas: int = 1
    executor: str = "serial"
    max_queue_depth: Optional[int] = None
    overload_policy: str = "reject"
    ingress: str = "sync"
    flush_on_submit: bool = True
    default_timeout: Optional[float] = None
    fault_plan: Optional["FaultPlan"] = None
    max_retries: int = 2
    health_failure_threshold: int = 3
    telemetry: str = "metrics"
    trace_capacity: int = 4096
    seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "ServingConfig":
        """Reject invalid values and contradictory knob combinations.

        Runs automatically at construction (and therefore after every
        ``dataclasses.replace``); each conflict raises ``ValueError`` with
        its own message.  Returns ``self`` so call sites can chain.  Float
        checks are written ``not x > 0`` so that NaN fails them too.
        """
        if self.num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if self.num_replicas <= 0:
            raise ValueError("num_replicas must be positive")
        if self.max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if not self.max_delay >= 0:
            raise ValueError("max_delay must be non-negative")
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity must be non-negative (0: no store without the halo tier)")
        if self.executor not in ("serial", "concurrent", "process"):
            raise ValueError(
                f"executor must be 'serial', 'concurrent' or 'process', got {self.executor!r}"
            )
        if self.max_queue_depth is not None and self.max_queue_depth <= 0:
            raise ValueError("max_queue_depth must be positive (or None for unbounded)")
        if self.overload_policy not in ("reject", "shed_oldest"):
            raise ValueError(
                "overload_policy must be 'reject' or 'shed_oldest', "
                f"got {self.overload_policy!r}"
            )
        if self.default_timeout is not None and not self.default_timeout > 0:
            raise ValueError("default_timeout must be positive (or None for no deadline)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative (0 disables failover)")
        if self.health_failure_threshold < 1:
            raise ValueError("health_failure_threshold must be >= 1")
        from ..telemetry import TELEMETRY_MODES

        if self.telemetry not in TELEMETRY_MODES:
            raise ValueError(
                f"telemetry must be one of {TELEMETRY_MODES}, got {self.telemetry!r}"
            )
        if self.trace_capacity < 1:
            raise ValueError("trace_capacity must be >= 1")
        if self.ingress not in INGRESS_MODES:
            raise ValueError(
                f"ingress must be one of {INGRESS_MODES}, got {self.ingress!r}"
            )
        return self
