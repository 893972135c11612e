"""Front-door benchmarks: class-aware overload and async ingress.

Gates on the synthetic Reddit-like graph (all deterministic unless noted):

1. **Class-aware shedding** (simulated clock, always asserted): under a
   sustained 2x-overload open loop with a 25/25/50 premium/standard/backfill
   mix, bounded queues + ``shed_oldest`` must (a) keep *premium* p99 within
   the analytic queueing bound and (b) land >= 90% of the sheds on backfill —
   the excess traffic equals the backfill share, so the lightest class can
   absorb essentially all of it.  The per-class ledger must balance.
2. **Background ingress** (wall clock, always asserted for exactness): with
   ``ingress="thread"`` handles resolve through the pump alone — no
   ``drain()`` — and the answers are bitwise-identical to the synchronous
   server's.

``BLOCKGNN_QUICK=1`` shrinks the graph and the request stream so CI can
exercise every code path without timing flakiness.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.compression import CompressionConfig
from repro.graph import load_dataset
from repro.models import Trainer, TrainingConfig, create_model
from repro.serving import InferenceServer, ManualClock, ServingConfig, SystemClock

QUICK = os.environ.get("BLOCKGNN_QUICK", "0") == "1"

SCALE = 0.001 if QUICK else 0.003
HIDDEN = 32 if QUICK else 64
EPOCHS = 1 if QUICK else 2

#: 25/25/50 premium/standard/backfill — the overload excess (2x arrival over
#: 1x capacity) exactly matches the backfill share of the stream.
CLASS_CYCLE = ("premium", "standard", "backfill", "backfill")


@pytest.fixture(scope="module")
def served_setup():
    graph = load_dataset("reddit", scale=SCALE, seed=0, num_features=HIDDEN)
    model = create_model(
        "GCN",
        in_features=graph.num_features,
        hidden_features=HIDDEN,
        num_classes=graph.num_classes,
        compression=CompressionConfig(block_size=8),
        seed=0,
    )
    Trainer(model, graph, TrainingConfig(epochs=EPOCHS, fanouts=(10, 5), seed=0)).fit()
    return graph, model


def test_class_overload_premium_p99_bounded_gate(served_setup, save_result):
    """Gate: 2x overload sheds backfill (>= 90%) while premium p99 holds."""
    graph, model = served_setup
    shards = 2
    batch = 8
    depth = 16
    interval = 0.010
    rounds = 8 if QUICK else 20

    rng = np.random.default_rng(1)
    clock = ManualClock()
    server = InferenceServer(
        model,
        graph,
        ServingConfig(
            num_shards=shards,
            max_batch_size=batch,
            max_delay=interval / 2,
            cache_capacity=4096,
            max_queue_depth=depth,
            overload_policy="shed_oldest",
            flush_on_submit=False,
            seed=0,
        ),
        clock=clock,
    )
    handles = []
    for _ in range(rounds):  # arrival phase: 2x the per-round service capacity
        arrivals = rng.choice(graph.num_nodes, size=2 * shards * batch, replace=True)
        handles.extend(
            server.submit(int(node), request_class=CLASS_CYCLE[i % len(CLASS_CYCLE)])
            for i, node in enumerate(arrivals)
        )
        clock.advance(interval)
        server.poll()
    while server.batcher.pending:  # service continues at the same rate
        clock.advance(interval)
        server.poll()
    server.shutdown()
    stats = server.stats()

    # Per-class ledger balances against per-handle ground truth.
    assert stats.submitted_requests == len(handles)
    for name in ("premium", "standard", "backfill"):
        group = [h for h in handles if h.request_class == name]
        assert sum(stats.class_requests[name].values()) == len(group)

    # Backfill absorbs (nearly) all of the excess.
    total_shed = stats.shed_requests
    assert total_shed > 0
    backfill_shed = stats.class_requests["backfill"]["shed"]
    backfill_shed_share = backfill_shed / total_shed
    assert stats.class_requests["premium"]["shed"] == 0

    # Premium p99 within the analytic queueing bound: a surviving request
    # sits behind at most max_queue_depth queued requests, served one batch
    # per round — and premium, batched first, never waits out a full queue.
    premium_latencies = np.array(
        [h.latency for h in handles if h.request_class == "premium" and h.completed]
    )
    premium_p99 = float(np.percentile(premium_latencies, 99))
    bound = (depth / batch + 2) * interval

    save_result(
        "serving_frontdoor",
        f"2x-overload open loop, {rounds} rounds x {2 * shards * batch} arrivals, "
        f"25/25/50 premium/standard/backfill, {shards} shards, batch {batch}, "
        f"depth {depth} ({graph.summary()})\n"
        f"  premium  : p99 {premium_p99 * 1e3:8.1f} ms "
        f"(completed {stats.class_requests['premium']['completed']}, shed 0)\n"
        f"  backfill : shed {backfill_shed}/{total_shed} "
        f"({backfill_shed_share:.1%} of all sheds)\n"
        f"  analytic bound: {bound * 1e3:8.1f} ms",
        premium_p99_ms=premium_p99 * 1e3,
        bound_ms=bound * 1e3,
        backfill_shed_share=backfill_shed_share,
        total_shed=total_shed,
    )
    assert premium_p99 <= bound, (
        f"premium p99 {premium_p99 * 1e3:.1f} ms exceeds the queueing bound "
        f"{bound * 1e3:.1f} ms"
    )
    assert backfill_shed_share >= 0.90, (
        f"backfill carried only {backfill_shed_share:.1%} of sheds; "
        f"expected >= 90% of the excess"
    )


def test_thread_ingress_matches_sync_gate(served_setup, save_result):
    """Gate: the background pump resolves handles bit-identically, no drain."""
    graph, model = served_setup
    num_requests = 64 if QUICK else 256
    nodes = np.random.default_rng(2).choice(graph.num_nodes, size=num_requests, replace=True)

    base = dict(
        num_shards=2, max_batch_size=32, max_delay=0.002, cache_capacity=4096, seed=0
    )
    with InferenceServer(model, graph, ServingConfig(**base)) as sync_server:
        expected = sync_server.predict(nodes)

    threaded = InferenceServer(
        model, graph, ServingConfig(**base, ingress="thread"), clock=SystemClock()
    )
    try:
        assert threaded.has_background_ingress
        handles = threaded.submit_many([int(node) for node in nodes])
        got = np.array([h.result(timeout=30.0) for h in handles])
        polls = threaded.frontdoor.polls
    finally:
        threaded.shutdown()

    np.testing.assert_array_equal(got, expected)
    save_result(
        "serving_frontdoor_ingress",
        f"{num_requests} requests resolved through the background pump "
        f"({polls} pump polls, no drain) — bitwise-identical to sync ingress",
        pump_polls=polls,
        requests=num_requests,
    )
