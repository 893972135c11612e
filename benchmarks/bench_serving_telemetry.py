"""Telemetry trace-completeness gate + the observability artifacts CI archives.

**Trace completeness under faults** (always asserted): a fault-injected
traced run exports valid Chrome trace-event JSON accounting for every
terminal request, and the failed attempt records match the health tracker's
per-replica failure counts one for one.

The run's Chrome trace and Prometheus snapshot are written to
``benchmarks/results/`` (``serving_telemetry_sample.trace.json`` / ``.prom``)
so CI can archive browsable artifacts of every run.  Telemetry *overhead* is
measured by the e2e benchmark's ``telemetry.overhead_ratio`` and
``telemetry.trace_overhead_ratio`` rows, not here.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.graph import load_dataset
from repro.models import Trainer, TrainingConfig, create_model
from repro.serving import FaultPlan, InferenceServer, ManualClock, ServingConfig

QUICK = os.environ.get("BLOCKGNN_QUICK", "0") == "1"

SCALE = 0.0015 if QUICK else 0.006
HIDDEN = 32 if QUICK else 64
NUM_SHARDS = 4
BATCH_SIZE = 32
STREAM = 4 if QUICK else 8  # batches per shard per pass

FAIL_RATE = 0.10
CHAOS_SEED = 1337


@pytest.fixture(scope="module")
def served_setup():
    graph = load_dataset("reddit", scale=SCALE, seed=0, num_features=HIDDEN)
    model = create_model(
        "GCN",
        in_features=graph.num_features,
        hidden_features=HIDDEN,
        num_classes=graph.num_classes,
        seed=0,
    )
    Trainer(model, graph, TrainingConfig(epochs=1, fanouts=(10, 5), seed=0)).fit()
    model.eval()
    reference = model.full_forward(graph).data.argmax(axis=-1)
    return graph, model, reference


def _server(model, graph, fault_plan):
    config = ServingConfig(
        num_shards=NUM_SHARDS,
        num_replicas=2,
        max_batch_size=BATCH_SIZE,
        max_delay=0.002,
        cache_capacity=65536,
        telemetry="trace",
        trace_capacity=65536,
        fault_plan=fault_plan,
        max_retries=2,
        seed=0,
    )
    return InferenceServer(model, graph, config, clock=ManualClock())


def _stream(graph, seed=1):
    size = STREAM * BATCH_SIZE * NUM_SHARDS
    return np.random.default_rng(seed).choice(graph.num_nodes, size=size, replace=True)


def test_fault_injected_trace_is_complete(served_setup, save_result, results_dir):
    """The chaos run's trace is valid and accounts for everything."""
    graph, model, reference = served_setup
    plan = FaultPlan.replica_failures(FAIL_RATE, seed=CHAOS_SEED)
    server = _server(model, graph, plan)
    nodes = _stream(graph)
    requests = server.submit_many(nodes)
    server.drain()

    assert server.stats().injected_faults > 0
    assert all(request.done for request in requests)
    for request in requests:
        if request.completed:
            assert request.prediction == reference[request.node]

    # Failed attempt records match the health tracker one for one.
    traced = server.tracer.failed_attempts_by_worker()
    for worker in server.workers:
        assert traced.get(worker.worker_id, 0) == (
            server.health.snapshot(worker.worker_id).failures
        )

    trace_path = results_dir / "serving_telemetry_sample.trace.json"
    server.telemetry.write_trace(trace_path)
    prom_path = results_dir / "serving_telemetry_sample.prom"
    server.telemetry.write_metrics(prom_path)
    server.shutdown()

    document = json.loads(trace_path.read_text())  # valid trace-event JSON
    spans = {
        event["args"]["request_id"]: event["args"]["status"]
        for event in document["traceEvents"]
        if event.get("cat") == "request"
    }
    assert document["otherData"]["dropped_traces"] == 0
    assert len(spans) == len(requests)
    for request in requests:
        assert spans[request.request_id] == request.status

    attempts = sum(
        1 for event in document["traceEvents"] if event.get("cat") == "dispatch"
    )
    errors = sum(v for v in traced.values())
    save_result(
        "serving_telemetry_trace",
        f"fault-injected trace: {len(spans)} request spans, {attempts} dispatch "
        f"attempts ({errors} failed), 0 dropped -> {trace_path.name}, "
        f"prometheus snapshot -> {prom_path.name}",
        request_spans=len(spans),
        dispatch_attempts=attempts,
        failed_attempts=errors,
    )
