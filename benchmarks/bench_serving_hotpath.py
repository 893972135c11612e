"""Serving fast-path benchmarks with in-repo acceptance gates.

Gates on the synthetic Reddit-like graph (default 4-shard config):

1. **Exactness** (always asserted): served predictions equal offline
   full-graph inference bitwise, cold and warm, for all four models, under
   both cache policies (``lru`` / ``degree``) and both in-process executors.
2. **Degree-aware retention** (deterministic, always asserted): on a Zipf
   (power-law) request stream at equal capacity, degree-weighted retention
   achieves a strictly higher hit rate than LRU.

Absolute serving throughput and latency (cold and warm caches) are measured
end to end by ``benchmarks/e2e`` (workloads ``serve_cold`` and
``serve_warm_zipf``).  ``BLOCKGNN_QUICK=1`` shrinks the graph for CI.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.compression import CompressionConfig
from repro.graph import load_dataset
from repro.models import Trainer, TrainingConfig, create_model
from repro.serving import InferenceServer, ManualClock, ServingConfig

QUICK = os.environ.get("BLOCKGNN_QUICK", "0") == "1"

SCALE = 0.001 if QUICK else 0.006
HIDDEN = 32 if QUICK else 64
EPOCHS = 1 if QUICK else 2
NUM_SHARDS = 4
BATCH_SIZE = 32

MODELS = ["GCN", "GS-Pool", "G-GCN", "GAT"]


@pytest.fixture(scope="module")
def served_setup():
    """A trained block-circulant GCN on the Reddit-like graph."""
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


def _server(model, graph, cache=4096, policy="lru", executor="serial",
            shards=NUM_SHARDS, clock=None):
    return InferenceServer(
        model,
        graph,
        ServingConfig(
            num_shards=shards,
            max_batch_size=BATCH_SIZE,
            max_delay=0.002,
            cache_capacity=cache,
            cache_policy=policy,
            executor=executor,
            seed=0,
        ),
        clock=clock,
    )


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("policy", ["lru", "degree"])
@pytest.mark.parametrize("executor", ["serial", "concurrent"])
def test_hotpath_predictions_bitwise_equal(served_setup, model_zoo, name, policy, executor):
    """Gate: served predictions == full-graph inference, cold and warm, everywhere."""
    graph, _ = served_setup
    model = model_zoo[name]
    requests = np.random.default_rng(1).choice(
        graph.num_nodes, size=4 * BATCH_SIZE * NUM_SHARDS, replace=True
    )
    reference = model.full_forward(graph).data[requests].argmax(axis=-1)
    with _server(model, graph, policy=policy, executor=executor) as server:
        cold = server.predict(requests)
        warm = server.predict(requests)  # cached rows must not change an answer
    assert np.array_equal(cold, reference)
    assert np.array_equal(warm, reference)


def test_degree_retention_beats_lru_on_zipf_stream(served_setup, save_result):
    """Gate: degree-aware retention > LRU hit rate on power-law traffic.

    The stream is Zipf over nodes ranked by degree — the GNNIE assumption
    that popular serving targets are the hubs — with a long tail of cold
    nodes that acts as a continuous scan.  At equal (scarce) capacity LRU
    lets the tail evict the hubs' embeddings; degree pinning does not.
    """
    graph, model = served_setup
    rng = np.random.default_rng(4)
    by_degree = np.argsort(-graph.degrees(), kind="stable")
    weights = 1.0 / np.arange(1, graph.num_nodes + 1) ** 1.1
    stream = by_degree[
        rng.choice(graph.num_nodes, size=6 * graph.num_nodes, replace=True, p=weights / weights.sum())
    ]
    capacity = max(graph.num_nodes // 16, 8)

    hit_rates = {}
    for policy in ("lru", "degree"):
        with _server(model, graph, cache=capacity, policy=policy, clock=ManualClock()) as server:
            server.predict(stream)
            hit_rates[policy] = server.stats().cache_hit_rate

    save_result(
        "serving_hotpath_degree_policy",
        f"Zipf(1.1) degree-ranked stream of {len(stream)} requests, "
        f"cache {capacity} entries/worker on {graph.summary()}\n"
        f"  lru    hit rate: {hit_rates['lru'] * 100:.2f}%\n"
        f"  degree hit rate: {hit_rates['degree'] * 100:.2f}%",
        lru_hit_rate=hit_rates["lru"],
        degree_hit_rate=hit_rates["degree"],
        capacity=capacity,
    )
    assert hit_rates["degree"] > hit_rates["lru"], (
        f"degree-aware retention ({hit_rates['degree']:.3f}) did not beat "
        f"LRU ({hit_rates['lru']:.3f}) on the Zipf stream"
    )

