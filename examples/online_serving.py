"""Online serving tour: micro-batching, sharding, concurrency, overload.

Walks through the serving engine end to end:

1. train a block-circulant GCN on a Reddit-like synthetic graph,
2. partition the graph into halo-extended shards and start an
   :class:`repro.serving.InferenceServer`,
3. replay a request stream three ways — request-at-a-time, micro-batched
   cold, micro-batched warm — and compare latency/throughput,
4. verify the served answers are identical to offline full-graph inference,
5. price one request in CirCore accelerator cycles per shard (perfmodel),
6. serve the same stream through the concurrent (thread-pool) executor and
   check it answers bit-identically to the serial one,
7. overload the server 2x with bounded queues + ``shed_oldest`` and watch
   class-aware admission shed backfill first while accounting for every
   request,
8. go through the front door: ``submit()`` returns :class:`RequestHandle`
   futures, and with ``ingress="thread"`` a background pump serves them —
   ``handle.result()`` blocks until the answer lands, no ``drain()`` needed.

Run with:  python examples/online_serving.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.compression import CompressionConfig
from repro.graph import load_dataset
from repro.models import Trainer, TrainingConfig, create_model
from repro.serving import (
    InferenceServer,
    ManualClock,
    ServingConfig,
    estimate_shard_request_cycles,
)


def main() -> None:
    # 1. A trained model to serve.
    graph = load_dataset("reddit", scale=0.002, seed=0, num_features=64)
    print("Dataset:", graph.summary())
    model = create_model(
        "GCN",
        in_features=graph.num_features,
        hidden_features=64,
        num_classes=graph.num_classes,
        compression=CompressionConfig(block_size=8),
        seed=0,
    )
    Trainer(model, graph, TrainingConfig(epochs=2, fanouts=(10, 5), seed=0)).fit()

    # 2. The server: 2 shards, 32-request micro-batches, one shared embedding store.
    server = InferenceServer(
        model,
        graph,
        ServingConfig(num_shards=2, max_batch_size=32, max_delay=0.002, cache_capacity=4096),
    )
    print(server.describe())

    # 3. A bursty request stream (hot nodes repeat, like real traffic).
    rng = np.random.default_rng(0)
    requests = rng.choice(graph.num_nodes, size=512, replace=True)

    naive = InferenceServer(
        model, graph, ServingConfig(num_shards=2, max_batch_size=1, cache_capacity=0)
    )
    start = time.perf_counter()
    naive_predictions = naive.predict(requests)
    naive_seconds = time.perf_counter() - start

    start = time.perf_counter()
    cold_predictions = server.predict(requests)
    cold_seconds = time.perf_counter() - start
    cold_stats = server.stats()

    server.reset_stats()
    start = time.perf_counter()
    server.predict(requests)
    warm_seconds = time.perf_counter() - start
    warm_stats = server.stats()

    print("\n--- request-at-a-time vs micro-batched ---")
    print(f"request-at-a-time : {naive_seconds * 1e3:7.1f} ms  ({len(requests) / naive_seconds:7.0f} req/s)")
    print(
        f"micro-batched cold: {cold_seconds * 1e3:7.1f} ms  ({len(requests) / cold_seconds:7.0f} req/s, "
        f"{naive_seconds / cold_seconds:.1f}x)"
    )
    print(
        f"micro-batched warm: {warm_seconds * 1e3:7.1f} ms  ({len(requests) / warm_seconds:7.0f} req/s, "
        f"{naive_seconds / warm_seconds:.1f}x)"
    )
    print("\n--- cold pass stats ---")
    print(cold_stats.render())
    print("\n--- warm pass stats ---")
    print(warm_stats.render())

    # 4. Served answers match offline full-graph inference exactly.
    reference = model.full_forward(graph).data[requests].argmax(axis=-1)
    assert np.array_equal(cold_predictions, reference)
    assert np.array_equal(naive_predictions, reference)
    print("\nserved predictions identical to full-graph inference: OK")

    # 5. What would each shard cost on the BlockGNN accelerator?
    print("\n--- perfmodel: per-request CirCore cycles ---")
    estimates = estimate_shard_request_cycles(
        "GCN", server.shards, num_classes=graph.num_classes,
        hidden_features=64, num_layers=model.num_layers, sample_sizes=(10, 5),
    )
    for shard, estimate in zip(server.shards, estimates):
        print(
            f"shard {shard.part_id}: {estimate.cycles_per_node:.0f} cycles/request "
            f"({estimate.cycles_per_node / estimate.config.frequency_hz * 1e6:.1f} us @ 100 MHz)"
        )

    # 6. The concurrent executor: one flush task per shard on a thread pool.
    #    Answers must be bit-identical — concurrency changes wall-clock only.
    print("\n--- concurrent executor (4 shards, thread pool) ---")
    for executor in ("serial", "concurrent"):
        with InferenceServer(
            model,
            graph,
            ServingConfig(num_shards=4, max_batch_size=32, cache_capacity=0, executor=executor),
        ) as wide:
            start = time.perf_counter()
            wide_predictions = wide.predict(requests)
            seconds = time.perf_counter() - start
            peak = wide.stats().peak_concurrency
        assert np.array_equal(wide_predictions, reference)
        print(
            f"{executor:10s}: {seconds * 1e3:7.1f} ms ({len(requests) / seconds:7.0f} req/s, "
            f"peak {peak} flushes in flight)"
        )

    # 7. Overload: 2x the service rate against bounded queues.  Admission is
    #    class-aware: under shed_oldest the lightest class (backfill) is
    #    evicted first, premium batches first — and every request still
    #    terminates in exactly one state.
    print("\n--- admission control under 2x overload (shed_oldest, 3 classes) ---")
    clock = ManualClock()
    overloaded = InferenceServer(
        model,
        graph,
        ServingConfig(
            num_shards=2, max_batch_size=16, max_delay=0.005,
            max_queue_depth=32, overload_policy="shed_oldest", default_timeout=0.25,
        ),
        clock=clock,
    )
    overloaded.scheduler.flush_on_submit = False  # open loop: we drive the rounds
    class_cycle = ("premium", "standard", "backfill", "backfill")
    submitted = []
    for _ in range(20):
        arrivals = rng.choice(graph.num_nodes, size=64, replace=True)  # 2x capacity
        submitted.extend(
            overloaded.submit(int(node), request_class=class_cycle[i % len(class_cycle)])
            for i, node in enumerate(arrivals)
        )
        clock.advance(0.010)
        overloaded.poll()
    overloaded.shutdown()
    stats = overloaded.stats()
    print(
        f"submitted {stats.submitted_requests}: {stats.completed_requests} completed, "
        f"{stats.shed_requests} shed, {stats.expired_requests} expired, "
        f"{stats.rejected_requests} rejected"
    )
    for name, ledger in stats.class_requests.items():
        print(
            f"  class {name:9s}: {ledger['completed']:4d} completed, "
            f"{ledger['shed']:4d} shed, {ledger['expired']:4d} expired"
        )
    print(f"completed-request p99 latency: {stats.p99_latency * 1e3:.1f} ms (simulated clock)")
    assert stats.submitted_requests == len(submitted)
    print("every request accounted for: OK")

    # 8. The front door: RequestHandle futures + a background ingress pump.
    #    submit() enqueues and wakes the pump; result() blocks until the
    #    answer lands.  No drain(), no polling.
    print("\n--- front door: handles, background ingress ---")
    front = InferenceServer(
        model,
        graph,
        ServingConfig(
            num_shards=2, max_batch_size=32, max_delay=0.002, cache_capacity=4096,
            ingress="thread", executor="concurrent",
        ),
    )
    try:
        handles = [
            front.submit(int(node), request_class="premium" if i % 4 == 0 else "backfill")
            for i, node in enumerate(requests[:64])
        ]
        answers = np.array([handle.result(timeout=10.0) for handle in handles])
    finally:
        front.shutdown()
    assert np.array_equal(answers, reference[:64])
    premium_latencies = [h.latency for h in handles if h.request_class == "premium"]
    print(
        f"{len(handles)} handles resolved by the background pump (no drain); "
        f"premium p99 {np.percentile(premium_latencies, 99) * 1e3:.2f} ms"
    )
    print("front-door answers identical to full-graph inference: OK")


if __name__ == "__main__":
    main()
