"""Engine ↔ telemetry integration: the stats view, tracing, overhead shape.

What is pinned down here:

* ``ServerStats`` is a *view* over the metrics registry — the ledger the
  hypothesis property balances reads the same numbers Prometheus would
  scrape;
* tracing under faults: failed attempt records match the
  :class:`HealthTracker`'s per-replica failure counts one for one, and the
  Chrome trace accounts for every terminal request;
* the all-hit warm path allocates no stage-accounting objects (the
  regression the cached ``_StageScope`` design exists to prevent).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.compression import CompressionConfig
from repro.models import create_model
from repro.serving import (
    FaultPlan,
    FaultSpec,
    InferenceServer,
    ManualClock,
    ServingConfig,
    StageTimer,
    merge_stage_totals,
)
from repro.serving.timing import _StageScope


def _model(graph, seed=0):
    return create_model(
        "GCN",
        in_features=graph.num_features,
        hidden_features=16,
        num_classes=graph.num_classes,
        compression=CompressionConfig(block_size=1),
        seed=seed,
    )


def _server(model, graph, clock=None, **overrides):
    defaults = dict(num_shards=2, max_batch_size=8, max_delay=0.5, cache_capacity=1024, seed=0)
    defaults.update(overrides)
    return InferenceServer(
        model, graph, ServingConfig(**defaults), clock=clock or ManualClock()
    )


class TestConfig:
    def test_telemetry_mode_validated(self):
        with pytest.raises(ValueError):
            ServingConfig(telemetry="loud")
        with pytest.raises(ValueError):
            ServingConfig(trace_capacity=0)

    def test_default_mode_is_metrics(self):
        config = ServingConfig()
        assert config.telemetry == "metrics" and config.trace_capacity == 4096


class TestStatsAsRegistryView:
    def test_stats_counters_come_from_the_registry(self, small_graph):
        server = _server(_model(small_graph), small_graph)
        nodes = np.arange(24)
        server.predict(nodes)
        stats = server.stats()
        assert stats.completed_requests == 24
        family = server.telemetry.registry.get("serving_requests_total")
        by_status = {}
        for labels, child in family.samples():
            by_status[labels[1]] = by_status.get(labels[1], 0) + child.value
        assert by_status.get("completed", 0) == 24
        flushes = server.telemetry.registry.get("serving_flushes_total")
        assert sum(child.value for _, child in flushes.samples()) == (
            stats.size_flushes + stats.delay_flushes + stats.forced_flushes
        )
        rounds = server.telemetry.registry.get("serving_flush_rounds_total")
        assert rounds.labels().value == server.scheduler.rounds

    def test_latency_histogram_matches_exact_percentiles_to_one_bucket(self, small_graph):
        clock = ManualClock()
        server = _server(_model(small_graph), small_graph, clock=clock, max_batch_size=4)
        rng = np.random.default_rng(0)
        for node in rng.choice(small_graph.num_nodes, size=40, replace=True):
            server.submit(int(node))
            clock.advance(float(rng.uniform(0.0, 0.02)))
            server.poll()
        server.drain()
        stats = server.stats()
        merged = None
        family = server.telemetry.registry.get("serving_request_latency_seconds")
        for _, child in family.samples():
            if merged is None:
                merged = child
            else:
                merged.merge_from(child)
        assert merged.count == stats.completed_requests
        bucket_ratio = 10 ** (1 / 9)
        for q, exact in ((50.0, stats.p50_latency), (95.0, stats.p95_latency)):
            if exact > 0:
                assert exact / bucket_ratio <= merged.quantile(q) <= exact * bucket_ratio

    def test_off_mode_serves_identically_with_zero_counters(self, small_graph):
        model = _model(small_graph)
        nodes = np.arange(20)
        reference = _server(_model(small_graph), small_graph).predict(nodes)
        server = _server(model, small_graph, telemetry="off")
        assert np.array_equal(server.predict(nodes), reference)
        stats = server.stats()
        # Documented: the registry is null in "off" mode, so the ledger
        # counters read zero — but exact latency/batch records are kept.
        assert stats.completed_requests == 0
        assert len(stats.latencies) == 20
        assert server.telemetry.snapshot() == {}
        assert not server.telemetry.enabled

    def test_reset_stats_zeroes_the_registry_window(self, small_graph):
        server = _server(_model(small_graph), small_graph)
        server.predict(np.arange(10))
        server.reset_stats()
        assert server.stats().completed_requests == 0
        server.predict(np.arange(10, 16))
        assert server.stats().completed_requests == 6

    def test_exports_include_collected_gauges(self, small_graph, tmp_path):
        server = _server(_model(small_graph), small_graph)
        server.predict(np.arange(16))
        text = server.telemetry.prometheus_text()
        assert "serving_requests_total" in text
        assert 'serving_cache_events{event="misses"}' in text
        assert "serving_stage_seconds_bucket" in text
        snapshot = server.telemetry.snapshot()
        cache_events = {
            tuple(sample["labels"]): sample["value"]
            for sample in snapshot["serving_cache_events"]["samples"]
        }
        assert cache_events[("misses",)] == server.stats().cache.misses
        out = tmp_path / "metrics.prom"
        server.telemetry.write_metrics(out)
        assert "# TYPE serving_requests_total counter" in out.read_text()

    def test_render_shows_p999_and_na_for_empty_run(self, small_graph):
        server = _server(_model(small_graph), small_graph)
        empty = server.stats().render()
        assert "p99.9 n/a" in empty and "nan" not in empty
        server.predict(np.arange(8))
        assert "p99.9 " in server.stats().render()


class TestTracing:
    def test_every_completed_request_has_one_closed_root_span(self, small_graph):
        server = _server(_model(small_graph), small_graph, telemetry="trace")
        nodes = np.arange(30)
        server.predict(nodes)
        tracer = server.tracer
        assert tracer.active_count == 0
        finished = tracer.finished()
        assert sorted(t["request_id"] for t in finished) == list(range(30))
        for trace in finished:
            assert trace["status"] == "completed"
            assert trace["submit"] <= trace["dequeue"] <= trace["end"]
            assert trace["worker_id"] is not None
        # every successful attempt carries a stage breakdown
        ok = [a for a in tracer.attempts() if a["outcome"] == "ok"]
        assert ok and all(a["stages"] for a in ok)

    def test_metrics_mode_has_no_tracer(self, small_graph):
        server = _server(_model(small_graph), small_graph)
        assert server.tracer is None
        with pytest.raises(RuntimeError):
            server.telemetry.chrome_trace()


class TestTracingUnderFaults:
    @staticmethod
    def _faulty_server(graph, **overrides):
        plan = FaultPlan(
            FaultSpec(fail_rate=0.25, hang_rate=0.05), seed=11
        )
        defaults = dict(
            telemetry="trace",
            num_replicas=2,
            fault_plan=plan,
            max_retries=3,
            health_failure_threshold=3,
        )
        defaults.update(overrides)
        return _server(_model(graph), graph, **defaults)

    def test_failed_attempts_match_replica_failures_exactly(self, small_graph):
        server = self._faulty_server(small_graph)
        rng = np.random.default_rng(5)
        requests = server.submit_many(
            rng.choice(small_graph.num_nodes, size=80, replace=True)
        )
        server.drain()
        assert all(request.done for request in requests)
        traced = server.tracer.failed_attempts_by_worker()
        tracked = dict(enumerate(server.replicas.failures))
        assert sum(tracked.values()) > 0, "fault plan never fired — test is vacuous"
        for worker_id, failures in tracked.items():
            assert traced.get(worker_id, 0) == failures
        # ... and the injected-fault kinds surfaced on the error records
        error_faults = [
            a["fault"] for a in server.tracer.attempts() if a["outcome"] == "error"
        ]
        assert all(fault is not None for fault in error_faults)
        kinds = server.telemetry.registry.get("serving_faults_injected_total")
        by_kind = {labels[0]: child.value for labels, child in kinds.samples()}
        assert by_kind == {k: v for k, v in server.faults.injected.items()}

    def test_chrome_trace_accounts_for_every_terminal_request(self, small_graph, tmp_path):
        server = self._faulty_server(small_graph, max_queue_depth=16, default_timeout=2.0)
        rng = np.random.default_rng(9)
        requests = server.submit_many(
            rng.choice(small_graph.num_nodes, size=60, replace=True)
        )
        server.drain()
        terminal = [request for request in requests if request.done]
        assert len(terminal) == len(requests)
        path = tmp_path / "trace.json"
        server.telemetry.write_trace(path)
        document = json.loads(path.read_text())  # acceptance: valid JSON
        events = document["traceEvents"]
        spans = {
            event["args"]["request_id"]: event["args"]["status"]
            for event in events
            if event.get("cat") == "request"
        }
        assert document["otherData"]["dropped_traces"] == 0
        assert len(spans) == len(terminal)
        for request in terminal:
            assert spans[request.request_id] == request.status

    def test_retries_recorded_on_attempts(self, small_graph):
        server = self._faulty_server(small_graph)
        rng = np.random.default_rng(3)
        server.submit_many(rng.choice(small_graph.num_nodes, size=60, replace=True))
        server.drain()
        attempts = server.tracer.attempts()
        errors = [a for a in attempts if a["outcome"] == "error"]
        assert errors
        retried = [a for a in attempts if a["attempt"] > 0]
        assert retried, "no retry attempt was recorded"
        assert "backoff" not in attempts[0]
        # A dead replica is never dispatched, so no attempt records "dead".
        assert {a["state"] for a in attempts} <= {"healthy", "suspect"}


class TestStageAccountingAllocations:
    def test_warm_all_hit_flush_allocates_no_stage_scopes(self, small_graph, monkeypatch):
        server = _server(_model(small_graph), small_graph, num_shards=1)
        nodes = np.arange(16)
        server.predict(nodes)  # cold pass: caches fill, scopes get created
        server.reset_stats()
        allocations = []
        original = _StageScope.__init__

        def counting_init(self, timer, name):
            allocations.append(name)
            original(self, timer, name)

        monkeypatch.setattr(_StageScope, "__init__", counting_init)
        server.predict(nodes)  # warm all-hit pass
        assert server.stats().cache_hit_rate == 1.0
        assert allocations == []

    def test_stage_timer_reset_keeps_cached_scopes_and_bindings(self):
        timer = StageTimer(clock=iter(range(100)).__next__)
        scope_before = timer.stage("aggregation")
        with timer.stage("aggregation"):
            pass
        assert timer.totals["aggregation"] > 0
        timer.reset()
        assert timer.totals["aggregation"] == 0.0
        assert timer.stage("aggregation") is scope_before

    def test_merge_stage_totals_reuses_the_out_dict(self):
        timers = [StageTimer(), StageTimer()]
        timers[0].totals["aggregation"] = 1.5
        timers[1].totals["aggregation"] = 0.5
        out: dict = {"stale_key_outside_stages": 9.9}
        merged = merge_stage_totals(timers, out=out)
        assert merged is out
        assert merged["aggregation"] == 2.0
        assert merged["stale_key_outside_stages"] == 0.0
        fresh = merge_stage_totals(timers)
        assert fresh is not out and fresh["aggregation"] == 2.0
