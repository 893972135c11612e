"""Serving fast-path exactness gate on the synthetic Reddit-like graph.

Served predictions equal offline full-graph inference bitwise, cold and warm,
for all four models under both in-process executors (default 4-shard config,
one shared embedding store).

Absolute serving throughput and latency (cold and warm caches) are measured
end to end by ``benchmarks/e2e`` (workloads ``serve_cold`` and
``serve_warm_zipf``).  ``BLOCKGNN_QUICK=1`` shrinks the graph for CI.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.graph import load_dataset
from repro.models import create_model
from repro.serving import InferenceServer, ServingConfig

QUICK = os.environ.get("BLOCKGNN_QUICK", "0") == "1"

SCALE = 0.001 if QUICK else 0.006
HIDDEN = 32 if QUICK else 64
NUM_SHARDS = 4
BATCH_SIZE = 32

MODELS = ["GCN", "GS-Pool", "G-GCN", "GAT"]


@pytest.fixture(scope="module")
def graph():
    """The synthetic Reddit-like graph."""
    return load_dataset("reddit", scale=SCALE, seed=0, num_features=HIDDEN)


@pytest.fixture(scope="module")
def model_zoo(graph):
    """All four (untrained) model variants for the exactness grid."""
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


def _server(model, graph, executor="serial"):
    return InferenceServer(
        model,
        graph,
        ServingConfig(
            num_shards=NUM_SHARDS,
            max_batch_size=BATCH_SIZE,
            max_delay=0.002,
            cache_capacity=4096,
            executor=executor,
            seed=0,
        ),
    )


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("executor", ["serial", "concurrent"])
def test_hotpath_predictions_bitwise_equal(graph, model_zoo, name, executor):
    """Gate: served predictions == full-graph inference, cold and warm, everywhere."""
    model = model_zoo[name]
    requests = np.random.default_rng(1).choice(
        graph.num_nodes, size=4 * BATCH_SIZE * NUM_SHARDS, replace=True
    )
    reference = model.full_forward(graph).data[requests].argmax(axis=-1)
    with _server(model, graph, executor=executor) as server:
        cold = server.predict(requests)
        warm = server.predict(requests)  # cached rows must not change an answer
    assert np.array_equal(cold, reference)
    assert np.array_equal(warm, reference)
