"""Configuration of the online inference server."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .frontdoor import DEFAULT_REQUEST_CLASSES, ClassSpec, normalize_request_classes

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
        Entries *per worker* of the exact-LRU embedding cache (0 disables
        caching).
    halo_tier:
        Enable the shared :class:`~repro.serving.cache.HaloStore`: workers
        publish the boundary (halo) rows they compute and gather boundary
        rows a neighbouring shard (or a sibling replica) already computed,
        so cold flushes stop recomputing each other's cut nodes.  Needs at
        least two workers to exist.  Memory: one
        ``num_boundary_nodes x dim`` slab per layer, shared server-wide.
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
        GIL, so shards genuinely overlap.
    max_queue_depth, overload_policy:
        Admission control: each shard queue holds at most ``max_queue_depth``
        waiting requests (``None`` = unbounded).  On a full queue,
        ``"reject"`` turns the new request away, ``"shed_oldest"`` evicts the
        least-valuable queued request to make room (lightest request class
        first, oldest within the class — plain oldest-first with a single
        class), and ``"block"`` synchronously force-flushes the shard until
        there is capacity (backpressure).
    request_classes, default_class:
        Admission classes as ``{name: weight}`` (or ``((name, weight), ...)``).
        Weight orders both batch admission (heaviest first,
        deadline-earliest-first within a class) and shed-victim selection
        (lightest first), so under overload low-weight backfill sheds while
        high-weight traffic keeps a bounded p99.  ``default_class`` names the
        class ``submit()`` uses when the caller passes none.
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
        place (fresh worker, cache pre-warmed from the halo tier, new
        epoch).  Fewer failures leave it ``suspect`` but dispatchable, and a
        success makes it ``healthy`` again.
    telemetry, trace_capacity:
        Observability mode (see :data:`repro.telemetry.TELEMETRY_MODES`):
        ``"metrics"`` (default) records labelled counters/histograms into the
        server's :class:`~repro.telemetry.MetricsRegistry`; ``"trace"``
        additionally records one root span per request plus per-dispatch
        attempt records into a ring of ``trace_capacity`` entries
        (``InferenceServer.telemetry`` exposes the exporters); ``"off"``
        compiles telemetry out (null registry, no tracer — note
        ``ServerStats`` counters then read zero; intended for overhead
        baselines only).
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
    process_call_timeout: float = 30.0
    max_queue_depth: Optional[int] = None
    overload_policy: str = "reject"
    request_classes: ClassSpec = DEFAULT_REQUEST_CLASSES
    default_class: str = "standard"
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
        # Normalise the class spec ({name: weight} or pair iterable) to the
        # hashless tuple-of-pairs form once, so validate() and the engine see
        # one canonical shape on the frozen instance.
        object.__setattr__(
            self, "request_classes", normalize_request_classes(self.request_classes)
        )
        self.validate()

    def class_weights(self) -> dict:
        """The admission classes as a ``{name: weight}`` lookup dict."""
        return dict(self.request_classes)

    def validate(self) -> "ServingConfig":
        """Reject invalid values and contradictory knob combinations.

        Runs automatically at construction (and therefore after every
        ``dataclasses.replace``); each conflict raises ``ValueError`` with
        its own message.  Returns ``self`` so call sites can chain.
        """
        if self.num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if self.num_replicas <= 0:
            raise ValueError("num_replicas must be positive")
        if self.max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if self.max_delay < 0:
            raise ValueError("max_delay must be non-negative")
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity must be non-negative (0 disables caching)")
        if self.executor not in ("serial", "concurrent", "process"):
            raise ValueError(
                f"executor must be 'serial', 'concurrent' or 'process', got {self.executor!r}"
            )
        if self.process_call_timeout <= 0:
            raise ValueError("process_call_timeout must be positive")
        if self.max_queue_depth is not None and self.max_queue_depth <= 0:
            raise ValueError("max_queue_depth must be positive (or None for unbounded)")
        if self.overload_policy not in ("reject", "shed_oldest", "block"):
            raise ValueError(
                "overload_policy must be 'reject', 'shed_oldest' or 'block', "
                f"got {self.overload_policy!r}"
            )
        if self.default_timeout is not None and self.default_timeout <= 0:
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
        if not self.request_classes:
            raise ValueError("request_classes must define at least one class")
        names = [name for name, _ in self.request_classes]
        if len(set(names)) != len(names):
            raise ValueError(f"request_classes has duplicate class names: {names}")
        for name, weight in self.request_classes:
            if not name:
                raise ValueError("request class names must be non-empty strings")
            if not math.isfinite(weight) or weight <= 0:
                raise ValueError(
                    f"request class {name!r} needs a finite positive weight, got {weight!r}"
                )
        if self.default_class not in names:
            raise ValueError(
                f"default_class {self.default_class!r} is not a configured request "
                f"class (have: {names})"
            )
        if (
            self.overload_policy == "block"
            and not self.flush_on_submit
            and self.ingress == "sync"
        ):
            raise ValueError(
                "overload_policy='block' with flush_on_submit=False and "
                "ingress='sync' would deadlock: a blocked submitter waits for a "
                "flush nothing is scheduled to run — enable flush_on_submit, use "
                "ingress='thread', or pick another overload policy"
            )
        return self
