"""Export surfaces: Prometheus text, JSON snapshots, Chrome trace events.

Three formats, three consumers:

* :func:`prometheus_text` — the text exposition format every Prometheus
  scraper (and ``promtool``) understands: ``# HELP`` / ``# TYPE`` headers,
  one sample line per labelled child, histograms as cumulative
  ``_bucket{le=...}`` series plus ``_sum`` / ``_count``.
* :func:`metrics_json` — the registry snapshot as one JSON document
  (bucket counts included), for offline diffing and the bench artifacts.
* :func:`chrome_trace` — the tracer's span rings as Chrome trace-event JSON
  (the ``chrome://tracing`` / Perfetto "JSON Array Format"): requests are
  complete (``"ph": "X"``) events on pid 0 with one row (tid) per shard,
  dispatch attempts are complete events on pid 1 with one row per replica,
  and metadata events name every row.  Timestamps are clock seconds scaled
  to microseconds.  Each attempt's ``stages_s`` comes from its worker's
  :class:`~repro.serving.timing.StageTimer`; in-process workers read the
  server's clock, so on a ``ManualClock`` two runs of one script write the
  same trace byte for byte.  Worker processes time their stages on their
  own ``perf_counter``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

__all__ = ["prometheus_text", "metrics_json", "chrome_trace"]


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _format_value(value: float) -> str:
    # Prometheus wants plain decimal or scientific notation; repr of a python
    # int/float satisfies that, but normalise the non-finite spellings.
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == float("inf"):
            return "+Inf"
        if value == float("-inf"):
            return "-Inf"
    return repr(value)


def _label_str(names, values, extra: str = "") -> str:
    parts = [
        f'{name}="{_escape_label_value(str(value))}"' for name, value in zip(names, values)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(registry) -> str:
    """The registry in the Prometheus text exposition format (version 0.0.4)."""
    lines: List[str] = []
    for family in registry.collect():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for values, child in family.samples():
            if family.kind == "histogram":
                cumulative = 0
                for edge, count in zip(child.edges, child.counts):
                    cumulative += int(count)
                    labels = _label_str(
                        family.label_names, values, extra=f'le="{_format_value(float(edge))}"'
                    )
                    lines.append(f"{family.name}_bucket{labels} {cumulative}")
                labels = _label_str(family.label_names, values, extra='le="+Inf"')
                lines.append(f"{family.name}_bucket{labels} {int(child.count)}")
                labels = _label_str(family.label_names, values)
                lines.append(f"{family.name}_sum{labels} {_format_value(float(child.sum))}")
                lines.append(f"{family.name}_count{labels} {int(child.count)}")
            else:
                labels = _label_str(family.label_names, values)
                lines.append(f"{family.name}{labels} {_format_value(child.value)}")
    return "\n".join(lines) + "\n" if lines else ""


def metrics_json(registry, indent: Optional[int] = None) -> str:
    """The registry snapshot (``registry.snapshot()``) as a JSON document."""
    return json.dumps(registry.snapshot(), indent=indent, sort_keys=True)


_REQUEST_PID = 0
_WORKER_PID = 1


def _microseconds(seconds: float) -> float:
    return seconds * 1e6


def chrome_trace(tracer) -> dict:
    """Tracer rings → Chrome trace-event JSON (load in Perfetto / chrome://tracing).

    Every closed root span becomes one complete event per request on the
    "requests" process (rows = shards), with a nested "queue_wait" child when
    the request was ever dequeued; every attempt record becomes a complete
    event on the "workers" process (rows = replicas; degraded attempts land
    on a ``degraded`` row).  Zero-duration spans are widened to one
    microsecond so viewers render them.
    """
    events: List[dict] = []
    shard_rows: Dict[int, None] = {}
    worker_rows: Dict[object, None] = {}
    for trace in tracer.finished():
        shard_rows.setdefault(trace["shard"], None)
        start = _microseconds(trace["submit"])
        duration = max(_microseconds(trace["end"] - trace["submit"]), 1.0)
        args = {
            "request_id": trace["request_id"],
            "node": trace["node"],
            "status": trace["status"],
            "retries": trace["retries"],
        }
        if trace["worker_id"] is not None:
            args["worker_id"] = trace["worker_id"]
        events.append(
            {
                "name": f"request {trace['request_id']} [{trace['status']}]",
                "cat": "request",
                "ph": "X",
                "pid": _REQUEST_PID,
                "tid": trace["shard"],
                "ts": start,
                "dur": duration,
                "args": args,
            }
        )
        if trace["dequeue"] is not None:
            events.append(
                {
                    "name": "queue_wait",
                    "cat": "queue",
                    "ph": "X",
                    "pid": _REQUEST_PID,
                    "tid": trace["shard"],
                    "ts": start,
                    "dur": max(_microseconds(trace["dequeue"] - trace["submit"]), 1.0),
                    "args": {"request_id": trace["request_id"]},
                }
            )
    for record in tracer.attempts():
        row = record["worker_id"] if record["worker_id"] is not None else "degraded"
        worker_rows.setdefault(row, None)
        tid = row if isinstance(row, int) else 9999
        args = {
            "shard": record["shard"],
            "attempt": record["attempt"],
            "outcome": record["outcome"],
            "batch_size": len(record["request_ids"]),
            "request_ids": record["request_ids"],
        }
        if record["state"] is not None:
            args["state"] = record["state"]
        if record["fault"] is not None:
            args["fault"] = record["fault"]
        if record["stages"]:
            args["stages_s"] = record["stages"]
        events.append(
            {
                "name": f"attempt#{record['attempt']} [{record['outcome']}]",
                "cat": "dispatch",
                "ph": "X",
                "pid": _WORKER_PID,
                "tid": tid,
                "ts": _microseconds(record["start"]),
                "dur": max(_microseconds(record["end"] - record["start"]), 1.0),
                "args": args,
            }
        )
    metadata: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _REQUEST_PID,
            "tid": 0,
            "args": {"name": "requests"},
        },
        {
            "name": "process_name",
            "ph": "M",
            "pid": _WORKER_PID,
            "tid": 0,
            "args": {"name": "workers"},
        },
    ]
    for shard in sorted(shard_rows):
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _REQUEST_PID,
                "tid": shard,
                "args": {"name": f"shard {shard}"},
            }
        )
    for row in sorted(worker_rows, key=str):
        tid = row if isinstance(row, int) else 9999
        name = f"replica {row}" if isinstance(row, int) else "degraded path"
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _WORKER_PID,
                "tid": tid,
                "args": {"name": name},
            }
        )
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "dropped_traces": tracer.dropped_traces,
            "dropped_attempts": tracer.dropped_attempts,
        },
    }
