"""Observability plane: a mergeable metrics registry + per-request tracing.

Three pieces, each usable on its own:

* :mod:`repro.telemetry.metrics` — thread-safe :class:`Counter` /
  :class:`Gauge` / :class:`LogHistogram` families in a
  :class:`MetricsRegistry`.  Histograms keep fixed log-spaced buckets, so
  p50/p95/p99/p99.9 come from O(buckets) state and two registries (two
  processes, eventually) merge by addition.
* :mod:`repro.telemetry.tracer` — a :class:`RequestTracer` copying one root
  span per request (submit → queue wait → terminal state) from the request
  ledger's settled rows, plus batch-level dispatch-attempt records (replica,
  replica state, injected fault, stage breakdown), into bounded rings.
* :mod:`repro.telemetry.exporters` — Prometheus text exposition, JSON
  metric snapshots, and Chrome trace-event JSON off those two.

:class:`Telemetry` bundles them behind one mode switch:

``"off"``
    Null registry, no tracer: every instrumentation call site degrades to a
    no-op or an ``is not None`` check, and exports are empty.  This is the
    measured baseline the e2e ``telemetry.overhead_ratio`` row compares
    against.  The engine's ``ServerStats`` is unaffected: it reads each
    count from the object that keeps it.
``"metrics"`` (default)
    Real registry, no tracer: labelled counters and histograms with no
    per-request record keeping.
``"trace"``
    Registry plus the request tracer.

``collectors`` are pull hooks: a component whose counts live in its own
objects (the serving engine's ledger, batcher, replica set, fault plan,
caches) registers a callback that copies them into registry counters and
gauges, and every export runs the callbacks first — so a scrape always sees
fresh values without the hot path paying for counter writes.
"""

from __future__ import annotations

import json
import pathlib
from typing import Callable, List, Optional, Union

from .exporters import chrome_trace, metrics_json, prometheus_text
from .metrics import (
    Counter,
    Gauge,
    LogHistogram,
    MetricFamily,
    MetricsRegistry,
    NullFamily,
    NullMetric,
    NullRegistry,
    default_latency_buckets,
)
from .tracer import RequestTracer

__all__ = [
    "TELEMETRY_MODES",
    "Telemetry",
    "Counter",
    "Gauge",
    "LogHistogram",
    "MetricFamily",
    "MetricsRegistry",
    "NullFamily",
    "NullMetric",
    "NullRegistry",
    "RequestTracer",
    "default_latency_buckets",
    "prometheus_text",
    "metrics_json",
    "chrome_trace",
]

TELEMETRY_MODES = ("off", "metrics", "trace")


class Telemetry:
    """One handle over the registry, the tracer and the exporters."""

    def __init__(self, mode: str = "metrics", trace_capacity: int = 4096) -> None:
        if mode not in TELEMETRY_MODES:
            raise ValueError(f"telemetry mode must be one of {TELEMETRY_MODES}, got {mode!r}")
        self.mode = mode
        self.registry = NullRegistry() if mode == "off" else MetricsRegistry()
        self.tracer: Optional[RequestTracer] = (
            RequestTracer(trace_capacity) if mode == "trace" else None
        )
        self._collectors: List[Callable[[], None]] = []

    @property
    def enabled(self) -> bool:
        """Is any telemetry recorded at all?"""
        return self.mode != "off"

    @property
    def tracing(self) -> bool:
        return self.tracer is not None

    def add_collector(self, collector: Callable[[], None]) -> None:
        """Register a pull hook run before every export/snapshot."""
        self._collectors.append(collector)

    def _collect(self) -> None:
        for collector in self._collectors:
            collector()

    # -- exports -----------------------------------------------------------------

    def prometheus_text(self) -> str:
        self._collect()
        return prometheus_text(self.registry)

    def metrics_json(self, indent: Optional[int] = None) -> str:
        self._collect()
        return metrics_json(self.registry, indent=indent)

    def snapshot(self) -> dict:
        self._collect()
        return self.registry.snapshot()

    def chrome_trace(self) -> dict:
        if self.tracer is None:
            raise RuntimeError(
                'no tracer active — build the server with telemetry="trace" '
                "to record request spans"
            )
        return chrome_trace(self.tracer)

    def write_metrics(self, path: Union[str, "pathlib.Path"]) -> None:
        """Write the registry to ``path``: Prometheus text for ``.prom`` /
        ``.txt``, a JSON snapshot otherwise."""
        path = pathlib.Path(path)
        if path.suffix in (".prom", ".txt"):
            path.write_text(self.prometheus_text())
        else:
            path.write_text(self.metrics_json(indent=2))

    def write_trace(self, path: Union[str, "pathlib.Path"]) -> None:
        """Write the Chrome trace-event JSON to ``path``."""
        pathlib.Path(path).write_text(json.dumps(self.chrome_trace()))

    def reset(self) -> None:
        """Zero the registry and drop recorded spans (fresh window)."""
        self.registry.reset()
        if self.tracer is not None:
            self.tracer.reset()
