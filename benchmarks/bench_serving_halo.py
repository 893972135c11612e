"""Cross-shard halo exchange benchmarks with gates.

Gates on the synthetic Reddit-like graph, served over a **boundary-heavy**
partition (hash partitioning spreads every neighbourhood across shards, so
nearly every node is inside some other shard's halo — the worst case the
halo tier exists for):

1. **Exactness** (always asserted): predictions with the halo tier enabled
   are bitwise equal to offline full-graph inference — and to a server with
   it disabled — for all four models under both executors, cold and warm.
2. **Cold-flush speedup** (always asserted, floor depends on quick mode):
   cold-flush throughput with the halo tier on >= ``COLD_FLOOR`` x the same
   server with it off.  Without exchange each of the S shards recomputes the
   hidden layers of its entire halo; with it, every boundary row is computed
   exactly once server-wide and gathered everywhere else.

"Flush throughput" is measured at the worker level (``worker.predict`` on
routed micro-batches): the engine's admission/batching bookkeeping does not
depend on the halo tier and would only dilute the ratio.  ``BLOCKGNN_QUICK=1`` shrinks the graph and streams for CI.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.graph import load_dataset
from repro.models import Trainer, TrainingConfig, create_model
from repro.serving import InferenceServer, ManualClock, ServingConfig

QUICK = os.environ.get("BLOCKGNN_QUICK", "0") == "1"

SCALE = 0.0015 if QUICK else 0.006
HIDDEN = 32 if QUICK else 64
EPOCHS = 1
NUM_SHARDS = 4 if QUICK else 6
BATCH_SIZE = 32
REPEATS = 7 if QUICK else 5

#: Speedup floor of the halo tier on the boundary-heavy partition.  Asserted
#: in every run, including CI's quick mode; the quick floor is lower because
#: the shrunken graph leaves less duplicated work to remove.  The duplicated
#: work (plan build, aggregation, combination) is cheap next to costs the
#: tier does not touch: the full ratio reads ~1.5–1.7x, the quick one
#: ~1.1–1.2x, where a cold server's first cache puts (slab allocation)
#: cost about as much as that work.  Best of 7 quick passes keeps the small
#: quick ratio above scheduler noise.
COLD_FLOOR = 1.05 if QUICK else 1.3

MODELS = ["GCN", "GS-Pool", "G-GCN", "GAT"]


@pytest.fixture(scope="module")
def served_setup():
    """A trained GCN on the Reddit-like graph (hash partition regime)."""
    graph = load_dataset("reddit", scale=SCALE, seed=0, num_features=HIDDEN)
    model = create_model(
        "GCN",
        in_features=graph.num_features,
        hidden_features=HIDDEN,
        num_classes=graph.num_classes,
        seed=0,
    )
    Trainer(model, graph, TrainingConfig(epochs=EPOCHS, fanouts=(10, 5), seed=0)).fit()
    model.eval()  # flush measurements run the inference path, as the engine pins it
    return graph, model


@pytest.fixture(scope="module")
def model_zoo(served_setup):
    """All four (untrained) model variants for the exactness grid."""
    graph, _ = served_setup
    return {
        name: create_model(
            name,
            in_features=graph.num_features,
            hidden_features=HIDDEN,
            num_classes=graph.num_classes,
            seed=0,
        )
        for name in MODELS
    }


def _server(model, graph, halo=True, executor="serial", cache=65536, clock=None):
    return InferenceServer(
        model,
        graph,
        ServingConfig(
            num_shards=NUM_SHARDS,
            partition_method="hash",   # boundary-heavy: every cut is a halo
            max_batch_size=BATCH_SIZE,
            max_delay=0.002,
            cache_capacity=cache,
            halo_tier=halo,
            executor=executor,
            seed=0,
        ),
        clock=clock,
    )


def _flush_batches(server, nodes):
    """Route ``nodes`` to their owning shard and chunk into micro-batches."""
    owner = server._owner[nodes]
    batches = []
    for shard_id, group in enumerate(server._replicas):
        shard_nodes = nodes[owner == shard_id]
        for start in range(0, len(shard_nodes), BATCH_SIZE):
            batches.append((group[0], shard_nodes[start: start + BATCH_SIZE]))
    return batches


def _flush_throughput(server, nodes):
    """Total seconds + predictions of serving ``nodes`` flush by flush."""
    predictions = []
    start = time.perf_counter()
    for worker, batch in _flush_batches(server, nodes):
        predictions.append(worker.predict(batch))
    return time.perf_counter() - start, np.concatenate(predictions)


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("executor", ["serial", "concurrent"])
def test_halo_predictions_bitwise_equal(served_setup, model_zoo, name, executor):
    """Gate: halo tier on == off == full-graph inference."""
    graph, _ = served_setup
    model = model_zoo[name]
    requests = np.random.default_rng(1).choice(
        graph.num_nodes, size=4 * BATCH_SIZE * NUM_SHARDS, replace=True
    )
    reference = model.full_forward(graph).data[requests].argmax(axis=-1)
    with _server(model, graph, halo=True, executor=executor) as server:
        enabled = server.predict(requests)
        enabled_warm = server.predict(requests)
        assert server.halo_store is not None
    with _server(model, graph, halo=False, executor=executor) as server:
        disabled = server.predict(requests)
        disabled_warm = server.predict(requests)
        assert server.halo_store is None
    assert np.array_equal(enabled, reference)
    assert np.array_equal(enabled_warm, reference)
    assert np.array_equal(disabled, reference)
    assert np.array_equal(disabled_warm, reference)


def test_halo_cold_flush_speedup_gate(served_setup, save_result):
    """Gate: cold-flush throughput with the halo tier >= COLD_FLOOR x without.

    A cold pass cannot be repeated on one server (the first pass warms every
    cache), so each repeat rebuilds the server; configurations are
    interleaved and the best pass per configuration compared, shaving
    scheduler noise off the wall-clock ratio.
    """
    graph, model = served_setup
    stream = np.random.default_rng(2).permutation(graph.num_nodes)

    results = {True: None, False: None}
    halo_hit_rate = 0.0
    for _ in range(REPEATS):
        for halo in (True, False):
            server = _server(model, graph, halo=halo, clock=ManualClock())
            seconds, predictions = _flush_throughput(server, stream)
            if results[halo] is None or seconds < results[halo][0]:
                results[halo] = (seconds, predictions)
            if halo:
                halo_hit_rate = server.stats().halo_hit_rate
            server.shutdown()

    assert np.array_equal(results[True][1], results[False][1])
    speedup = results[False][0] / results[True][0]
    save_result(
        "serving_halo_cold",
        f"cold (miss-heavy) flush throughput, GCN n=1, {NUM_SHARDS} hash shards "
        f"(boundary-heavy), batch {BATCH_SIZE} on {graph.summary()}\n"
        f"  halo off: {results[False][0] * 1e3:8.1f} ms "
        f"({len(stream) / results[False][0]:7.0f} req/s)\n"
        f"  halo on : {results[True][0] * 1e3:8.1f} ms "
        f"({len(stream) / results[True][0]:7.0f} req/s, "
        f"boundary hit rate {halo_hit_rate * 100:.1f}%)\n"
        f"  speedup : {speedup:.2f}x (floor {COLD_FLOOR:.2f}x)",
        speedup_halo_cold=speedup,
        floor=COLD_FLOOR,
        halo_hit_rate=halo_hit_rate,
        off_req_per_s=len(stream) / results[False][0],
        on_req_per_s=len(stream) / results[True][0],
    )
    assert speedup >= COLD_FLOOR, (
        f"halo tier cold path only {speedup:.2f}x over no-exchange (floor {COLD_FLOOR}x)"
    )


def test_halo_stats_surface_in_summary(served_setup, save_result):
    """The serve-bench surface reports the halo-tier hit rate."""
    graph, model = served_setup
    with _server(model, graph, clock=ManualClock()) as server:
        nodes = np.random.default_rng(4).choice(graph.num_nodes, size=512, replace=True)
        server.predict(nodes)
        stats = server.stats()
        rendered = stats.render()
    assert "halo tier:" in rendered
    save_result(
        "serving_halo_stats",
        rendered,
        halo_hit_rate=stats.halo_hit_rate,
        cache_hit_rate=stats.cache_hit_rate,
    )
