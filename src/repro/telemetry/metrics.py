"""A mergeable metrics registry: thread-safe counters, gauges, log histograms.

Design constraints (they all come from the serving plane's roadmap):

* **Fixed-size state.**  ``LogHistogram`` holds a fixed array of log-spaced
  bucket counts plus a running sum, so p50/p95/p99/p99.9 come from
  O(buckets) work and memory no matter how many observations were recorded —
  unlike ``np.percentile`` over an unbounded latency list, which is O(n)
  memory and O(n log n) per snapshot.
* **Mergeable by addition.**  Counters, gauge sums and histogram bucket
  counts of two registries (two workers, two processes, two shared-memory
  segments) combine element-wise: ``registry.merge(other)`` adds every
  sample, and a snapshot of the merged registry equals the snapshot of one
  registry that saw both streams.  This is the contract the multi-process
  serving plane (ROADMAP item 1) will ship per-process registries over.
* **Cheap on the hot path.**  A counter increment is one lock + one add;
  batched histogram observation (``observe_many``) is one vectorised
  ``searchsorted`` + ``bincount`` per flush, not one Python call per request.
* **Label-addressed.**  Every metric is a *family* (name, help, kind, label
  names); ``family.labels("0", "completed")`` resolves a child — per-shard /
  per-replica / per-stage series share one family and export together.

``NullRegistry`` (and its null metric objects) keeps every call site valid
while compiling telemetry out: the serving engine built with
``telemetry="off"`` runs the exact PR-6 hot path with only no-op calls left
behind — the baseline the e2e ``telemetry.overhead_ratio`` row measures
against.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "LogHistogram",
    "MetricFamily",
    "MetricsRegistry",
    "NullMetric",
    "NullFamily",
    "NullRegistry",
    "default_latency_buckets",
]

KINDS = ("counter", "gauge", "histogram")


def default_latency_buckets(
    lo: float = 1e-7, hi: float = 1e2, per_decade: int = 9
) -> np.ndarray:
    """Log-spaced bucket edges for second-valued latencies.

    The default spans 100 ns .. 100 s with nine buckets per decade, so a
    quantile read from bucket edges is within one bucket's relative width
    (``10**(1/9) ~ 1.29x``) of the exact order statistic — tight enough to
    tell p99 regressions apart, small enough (82 int64 counts) to snapshot
    and merge for free.
    """
    if not 0 < lo < hi:
        raise ValueError("bucket range needs 0 < lo < hi")
    if per_decade < 1:
        raise ValueError("per_decade must be >= 1")
    decades = math.log10(hi / lo)
    n = max(int(round(decades * per_decade)), 1)
    exponents = np.arange(n + 1, dtype=np.float64) / per_decade
    return lo * np.power(10.0, exponents)


class Counter:
    """A monotonically increasing count (one labelled child of a family)."""

    kind = "counter"
    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        with self._lock:
            self.value += amount

    def get(self) -> int:
        return self.value

    def merge_from(self, other: "Counter") -> None:
        with self._lock:
            self.value += other.value

    def reset(self) -> None:
        with self._lock:
            self.value = 0

    def snapshot(self):
        return self.value


class Gauge:
    """A value that can go up and down (queue depth, cache size, ...)."""

    kind = "gauge"
    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount

    def get(self) -> float:
        return self.value

    def merge_from(self, other: "Gauge") -> None:
        # Gauges merge by addition too: per-process queue depths, cache
        # occupancies and mirrored totals sum to the fleet-wide value.
        with self._lock:
            self.value += other.value

    def reset(self) -> None:
        with self._lock:
            self.value = 0.0

    def snapshot(self):
        return self.value


class LogHistogram:
    """Fixed log-spaced buckets: O(buckets) state, quantiles, exact merges.

    ``edges`` are the bucket upper bounds (ascending).  Bucket 0 counts
    observations ``<= edges[0]`` (underflow), bucket ``i`` counts
    ``edges[i-1] < v <= edges[i]``, and the final bucket counts overflow
    ``> edges[-1]`` — so ``counts`` has ``len(edges) + 1`` entries and two
    histograms over the same edges merge by adding their count arrays.
    """

    kind = "histogram"
    __slots__ = ("_lock", "edges", "_edge_list", "counts", "sum", "count")

    def __init__(self, edges: Optional[np.ndarray] = None) -> None:
        self._lock = threading.Lock()
        self.edges = (
            np.asarray(edges, dtype=np.float64)
            if edges is not None
            else default_latency_buckets()
        )
        if self.edges.ndim != 1 or len(self.edges) < 1:
            raise ValueError("histogram edges must be a non-empty 1-D array")
        if np.any(np.diff(self.edges) <= 0):
            raise ValueError("histogram edges must be strictly increasing")
        # Plain-list mirror of the edges: bisect on a list is ~10x cheaper
        # than a scalar np.searchsorted, and observe() sits on the hot path
        # (every stage-scope exit feeds a histogram).
        self._edge_list = self.edges.tolist()
        self.counts = np.zeros(len(self.edges) + 1, dtype=np.int64)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self._edge_list, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1

    def observe_many(self, values) -> None:
        """Vectorised batch observation (one searchsorted + bincount)."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        indices = np.searchsorted(self.edges, values, side="left")
        binned = np.bincount(indices, minlength=len(self.counts))
        with self._lock:
            self.counts += binned
            self.sum += float(values.sum())
            self.count += int(values.size)

    # -- reads -----------------------------------------------------------------

    def quantile(self, q: float) -> float:
        """Approximate the ``q``-th percentile (``q`` in [0, 100]).

        Returns the geometric midpoint of the bucket holding the target rank
        — within one bucket's relative width of the exact order statistic.
        ``nan`` when nothing was observed.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be within [0, 100]")
        with self._lock:
            total = self.count
            if total == 0:
                return float("nan")
            target = max(int(math.ceil(q / 100.0 * total)), 1)
            cumulative = np.cumsum(self.counts)
            bucket = int(np.searchsorted(cumulative, target, side="left"))
        if bucket == 0:
            return float(self.edges[0])
        if bucket >= len(self.edges):
            return float(self.edges[-1])
        return float(math.sqrt(self.edges[bucket - 1] * self.edges[bucket]))

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    def merge_from(self, other: "LogHistogram") -> None:
        if len(other.counts) != len(self.counts) or not np.array_equal(
            other.edges, self.edges
        ):
            raise ValueError("cannot merge histograms with different bucket edges")
        with self._lock:
            self.counts += other.counts
            self.sum += other.sum
            self.count += other.count

    def reset(self) -> None:
        with self._lock:
            self.counts[:] = 0
            self.sum = 0.0
            self.count = 0

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "count": int(self.count),
                "sum": float(self.sum),
                "edges": self.edges.tolist(),
                "counts": self.counts.tolist(),
            }


_METRIC_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": LogHistogram}


class MetricFamily:
    """One named metric with a fixed label schema and per-label-value children."""

    __slots__ = ("name", "help", "kind", "label_names", "_children", "_lock", "_edges")

    def __init__(
        self,
        name: str,
        help: str,
        kind: str,
        label_names: Sequence[str] = (),
        edges: Optional[np.ndarray] = None,
    ) -> None:
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        self.name = name
        self.help = help
        self.kind = kind
        self.label_names = tuple(label_names)
        self._children: Dict[Tuple[str, ...], object] = {}
        self._lock = threading.Lock()
        self._edges = edges

    def labels(self, *values: str, **named: str):
        """Resolve (creating on first use) the child for one label combination.

        Accepts the label values positionally or by name; an unlabelled
        family resolves its single anonymous child with no arguments.
        """
        if named:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            try:
                values = tuple(str(named[name]) for name in self.label_names)
            except KeyError as missing:
                raise ValueError(f"missing label {missing} for {self.name}") from None
            if len(named) != len(self.label_names):
                raise ValueError(f"unexpected labels for {self.name}: {sorted(named)}")
        else:
            values = tuple(str(value) for value in values)
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name} takes labels {self.label_names}, got {values!r}"
            )
        child = self._children.get(values)
        if child is None:
            with self._lock:
                child = self._children.get(values)
                if child is None:
                    if self.kind == "histogram":
                        child = LogHistogram(self._edges)
                    else:
                        child = _METRIC_TYPES[self.kind]()
                    self._children[values] = child
        return child

    def samples(self) -> List[Tuple[Tuple[str, ...], object]]:
        """``(label_values, child)`` pairs in insertion order."""
        with self._lock:
            return list(self._children.items())

    def total(self) -> float:
        """Sum of all children's values (counters/gauges only)."""
        if self.kind == "histogram":
            raise TypeError("histogram families have no scalar total")
        return sum(child.value for _, child in self.samples())

    def reset(self) -> None:
        for _, child in self.samples():
            child.reset()

    def merge_from(self, other: "MetricFamily") -> None:
        for label_values, child in other.samples():
            self.labels(*label_values).merge_from(child)

    def snapshot(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "help": self.help,
            "labels": list(self.label_names),
            "samples": [
                {"labels": list(values), "value": child.snapshot()}
                for values, child in self.samples()
            ],
        }


class MetricsRegistry:
    """A named collection of metric families; the unit of export and merge."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}

    # -- registration ------------------------------------------------------------

    def _register(
        self,
        name: str,
        help: str,
        kind: str,
        label_names: Sequence[str],
        edges: Optional[np.ndarray] = None,
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, help, kind, label_names, edges=edges)
                self._families[name] = family
                return family
        if family.kind != kind or family.label_names != tuple(label_names):
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}"
                f"{family.label_names}, not {kind}{tuple(label_names)}"
            )
        return family

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> MetricFamily:
        return self._register(name, help, "counter", labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> MetricFamily:
        return self._register(name, help, "gauge", labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        edges: Optional[np.ndarray] = None,
    ) -> MetricFamily:
        return self._register(name, help, "histogram", labels, edges=edges)

    # -- reads / plumbing --------------------------------------------------------

    def collect(self) -> List[MetricFamily]:
        with self._lock:
            return list(self._families.values())

    def get(self, name: str) -> Optional[MetricFamily]:
        with self._lock:
            return self._families.get(name)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A JSON-serialisable view of every family's every sample."""
        return {family.name: family.snapshot() for family in self.collect()}

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other``'s samples into this registry by addition (in place).

        Families missing here are created with ``other``'s schema, so merging
        per-process registries into a fresh one reproduces the union.
        Returns ``self`` for chaining.
        """
        for family in other.collect():
            edges = None
            if family.kind == "histogram":
                for _, child in family.samples():
                    edges = child.edges
                    break
                if edges is None:
                    edges = family._edges
            mine = self._register(
                family.name, family.help, family.kind, family.label_names, edges=edges
            )
            mine.merge_from(family)
        return self

    def merge_snapshot(self, snapshot: Dict[str, Dict[str, object]]) -> "MetricsRegistry":
        """Fold a :meth:`snapshot`-shaped dict into this registry by addition.

        The wire-format twin of :meth:`merge` for registries that live in
        another *process*: a worker ships ``registry.snapshot()`` (a plain
        JSON-safe dict) over its control channel, then resets, and the parent
        folds the delta in here — same addition semantics, no pickled locks.
        Returns ``self`` for chaining.
        """
        for name, family_snap in snapshot.items():
            kind = family_snap["kind"]
            samples = family_snap.get("samples", ())
            edges = None
            if kind == "histogram":
                for sample in samples:
                    edges = np.asarray(sample["value"]["edges"], dtype=np.float64)
                    break
            mine = self._register(
                name,
                family_snap.get("help", ""),
                kind,
                tuple(family_snap.get("labels", ())),
                edges=edges,
            )
            for sample in samples:
                child = mine.labels(*sample["labels"])
                value = sample["value"]
                if kind == "histogram":
                    other = LogHistogram(np.asarray(value["edges"], dtype=np.float64))
                    other.counts[:] = np.asarray(value["counts"], dtype=np.int64)
                    other.sum = float(value["sum"])
                    other.count = int(value["count"])
                    child.merge_from(other)
                elif kind == "counter":
                    child.inc(int(value))
                else:  # gauge
                    child.inc(float(value))
        return self

    def reset(self) -> None:
        """Zero every sample (bucket counts, sums, values); keep the schema."""
        for family in self.collect():
            family.reset()


# ---------------------------------------------------------------------------
# Null objects: telemetry compiled out, call sites untouched.
# ---------------------------------------------------------------------------


class NullMetric:
    """Accepts every metric call and does nothing (shared singleton)."""

    __slots__ = ()
    kind = "null"
    value = 0
    count = 0
    sum = 0.0

    def inc(self, amount: int = 1) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass

    def get(self) -> int:
        return 0

    def quantile(self, q: float) -> float:
        return float("nan")

    def reset(self) -> None:
        pass

    def snapshot(self):
        return 0


NULL_METRIC = NullMetric()


class NullFamily:
    """A family whose every child is the shared :data:`NULL_METRIC`."""

    __slots__ = ()
    kind = "null"
    label_names = ()

    def labels(self, *values: str, **named: str) -> NullMetric:
        return NULL_METRIC

    def samples(self) -> List[Tuple[Tuple[str, ...], object]]:
        return []

    def total(self) -> float:
        return 0.0

    def reset(self) -> None:
        pass


NULL_FAMILY = NullFamily()


class NullRegistry:
    """Registers nothing, exports nothing; every family is the null family."""

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> NullFamily:
        return NULL_FAMILY

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> NullFamily:
        return NULL_FAMILY

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        edges: Optional[np.ndarray] = None,
    ) -> NullFamily:
        return NULL_FAMILY

    def collect(self) -> List[MetricFamily]:
        return []

    def get(self, name: str) -> None:
        return None

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {}

    def merge(self, other) -> "NullRegistry":
        return self

    def merge_snapshot(self, snapshot) -> "NullRegistry":
        return self

    def reset(self) -> None:
        pass
