"""Tracer ring semantics and the three export surfaces."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.telemetry import (
    MetricsRegistry,
    RequestTracer,
    Telemetry,
    chrome_trace,
    metrics_json,
    prometheus_text,
)


def _settle(tracer, request_ids, status="completed", end=0.2, worker_id=1, dequeue=0.1):
    """Settle requests the way the engine does: their ledger columns, one call."""
    ids = np.asarray(request_ids, dtype=np.int64)
    count = len(ids)
    columns = {
        "request_id": ids,
        "node": np.full(count, 5),
        "shard": np.zeros(count, dtype=np.int64),
        "submit": np.zeros(count),
        "dequeue": np.full(count, dequeue),
        "retries": np.zeros(count, dtype=np.int64),
    }
    if worker_id is not None:
        columns["worker_id"] = np.full(count, worker_id)
    tracer.on_settled(status, end, columns)


def _run_one_request(tracer, request_id=0, worker_id=1, outcome="ok"):
    record = tracer.attempt(0, worker_id, [request_id], 0, "healthy", 0.1)
    tracer.end_attempt(record, 0.2, outcome, stages={"gather": 0.05, "idle": 0.0})
    _settle(tracer, [request_id], worker_id=worker_id)


class TestRequestTracer:
    def test_root_span_lifecycle(self):
        tracer = RequestTracer()
        _run_one_request(tracer)
        assert tracer.active_count == 0
        (trace,) = tracer.finished()
        assert trace == {
            "request_id": 0,
            "node": 5,
            "shard": 0,
            "submit": 0.0,
            "dequeue": 0.1,
            "status": "completed",
            "end": 0.2,
            "worker_id": 1,
            "retries": 0,
        }
        (attempt,) = tracer.attempts()
        assert attempt["outcome"] == "ok" and attempt["state"] == "healthy"
        assert attempt["stages"] == {"gather": 0.05}  # zero stages filtered

    def test_unpopped_and_uncompleted_rows_read_as_none(self):
        tracer = RequestTracer()
        _settle(tracer, [7, 8], status="shed", end=1.0, worker_id=None, dequeue=math.nan)
        spans = tracer.finished()
        assert [span["request_id"] for span in spans] == [7, 8]
        assert all(span["dequeue"] is None and span["worker_id"] is None for span in spans)
        assert {span["status"] for span in spans} == {"shed"}

    def test_active_count_reads_the_bound_ledger(self):
        tracer = RequestTracer()
        assert tracer.active_count == 0  # unbound: no ledger, nothing in flight
        tracer.unsettled = lambda: 3
        assert tracer.active_count == 3

    def test_ring_bound_and_dropped_counters(self):
        tracer = RequestTracer(capacity=2)
        for request_id in range(5):
            _run_one_request(tracer, request_id=request_id)
        assert len(tracer.finished()) == 2
        assert tracer.dropped_traces == 3
        assert tracer.dropped_attempts == 3
        assert [t["request_id"] for t in tracer.finished()] == [3, 4]
        with pytest.raises(ValueError):
            RequestTracer(capacity=0)

    def test_ring_wraps_in_settle_order(self):
        # Settles of several rows wrap the ring mid-call; one larger than
        # the ring keeps its newest rows.
        tracer = RequestTracer(capacity=4)
        _settle(tracer, [0, 1, 2])
        _settle(tracer, [3, 4, 5], status="expired", worker_id=None)
        assert [t["request_id"] for t in tracer.finished()] == [2, 3, 4, 5]
        assert [t["status"] for t in tracer.finished()] == ["completed"] + ["expired"] * 3
        assert tracer.dropped_traces == 2
        _settle(tracer, list(range(10, 20)))
        assert [t["request_id"] for t in tracer.finished()] == [16, 17, 18, 19]
        assert tracer.dropped_traces == 12

    def test_failed_attempts_by_worker(self):
        tracer = RequestTracer()
        for worker_id, outcome in ((0, "error"), (0, "error"), (1, "ok"), (1, "error")):
            record = tracer.attempt(0, worker_id, [0], 0, "healthy", 0.0)
            tracer.end_attempt(record, 0.1, outcome)
        assert tracer.failed_attempts_by_worker() == {0: 2, 1: 1}

    def test_reset_clears_everything(self):
        tracer = RequestTracer(capacity=1)
        _run_one_request(tracer, 0)
        _run_one_request(tracer, 1)
        tracer.reset()
        assert tracer.finished() == [] and tracer.attempts() == []
        assert tracer.dropped_traces == 0 and tracer.active_count == 0


class TestPrometheusText:
    def test_counter_gauge_histogram_exposition(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "requests", labels=("status",)).labels("ok").inc(3)
        registry.gauge("depth", "queue").labels().set(2.5)
        hist = registry.histogram("lat_seconds", "latency")
        hist.labels().observe(1e-4)
        text = prometheus_text(registry)
        assert "# HELP req_total requests" in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{status="ok"} 3' in text
        assert "depth 2.5" in text
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_count 1" in text
        assert "lat_seconds_sum 0.0001" in text
        # cumulative buckets are non-decreasing and end at the total count
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("lat_seconds_bucket")
        ]
        assert counts == sorted(counts) and counts[-1] == 1

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("m", labels=("k",)).labels('we"ird\\\n').inc()
        text = prometheus_text(registry)
        assert 'k="we\\"ird\\\\\\n"' in text


class TestChromeTrace:
    def test_trace_is_valid_and_accounts_for_every_request(self):
        tracer = RequestTracer()
        for request_id in range(4):
            _run_one_request(tracer, request_id=request_id)
        # one degraded attempt (no worker)
        record = tracer.attempt(1, None, [9], 0, None, 1.0)
        tracer.end_attempt(record, 1.1, "degraded")
        document = chrome_trace(tracer)
        parsed = json.loads(json.dumps(document))  # valid JSON round trip
        events = parsed["traceEvents"]
        request_events = [
            e for e in events if e.get("cat") == "request" and e["ph"] == "X"
        ]
        assert {e["args"]["request_id"] for e in request_events} == {0, 1, 2, 3}
        assert all(e["dur"] >= 1.0 for e in events if e["ph"] == "X")
        degraded = [e for e in events if e.get("cat") == "dispatch" and e["tid"] == 9999]
        assert len(degraded) == 1 and degraded[0]["args"]["outcome"] == "degraded"
        names = [e["args"]["name"] for e in events if e["ph"] == "M"]
        assert "requests" in names and "workers" in names and "degraded path" in names
        assert parsed["otherData"] == {"dropped_traces": 0, "dropped_attempts": 0}


class TestTelemetryHandle:
    def test_modes(self):
        off = Telemetry("off")
        assert not off.enabled and off.tracer is None
        assert off.snapshot() == {} and off.prometheus_text() == ""
        metrics = Telemetry("metrics")
        assert metrics.enabled and not metrics.tracing
        trace = Telemetry("trace", trace_capacity=16)
        assert trace.tracing and trace.tracer.capacity == 16
        with pytest.raises(ValueError):
            Telemetry("loud")
        with pytest.raises(RuntimeError):
            metrics.chrome_trace()

    def test_collectors_run_before_every_export(self):
        telemetry = Telemetry("metrics")
        gauge = telemetry.registry.gauge("pulled").labels()
        pulls = []
        telemetry.add_collector(lambda: (pulls.append(1), gauge.set(len(pulls)))[0])
        telemetry.snapshot()
        text = telemetry.prometheus_text()
        assert len(pulls) == 2
        assert "pulled 2" in text

    def test_write_metrics_picks_format_by_suffix(self, tmp_path):
        telemetry = Telemetry("metrics")
        telemetry.registry.counter("c").labels().inc()
        prom = tmp_path / "snap.prom"
        blob = tmp_path / "snap.json"
        telemetry.write_metrics(prom)
        telemetry.write_metrics(blob)
        assert "# TYPE c counter" in prom.read_text()
        assert json.loads(blob.read_text())["c"]["samples"][0]["value"] == 1
        assert telemetry.metrics_json() == metrics_json(telemetry.registry)

    def test_write_trace_round_trips(self, tmp_path):
        telemetry = Telemetry("trace")
        _run_one_request(telemetry.tracer)
        path = tmp_path / "trace.json"
        telemetry.write_trace(path)
        assert json.loads(path.read_text())["displayTimeUnit"] == "ms"
        telemetry.reset()
        assert telemetry.tracer.finished() == []
