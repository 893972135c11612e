"""Tests for full-graph layer-wise inference (``GNNModel.full_forward``).

The exactness claim: on a graph where the sampler can cover every
neighbourhood exactly — every node has degree 1, sampled with fanout 1 — the
full-graph logits must *equal* the sampled-forward logits for all four model
variants, dense and compressed, including the sampler's self-loop fallback
for isolated nodes.  A skewed graph (a hub, low-degree nodes and isolated
nodes) repeats the claim for the three edge-wise aggregators, whose segment
reductions sweep rows of very different lengths.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings

import numpy as np
import pytest

from repro.compression import CompressionConfig
from repro.graph.graph import Graph
from repro.graph.restriction import Restriction
from repro.graph.sampling import NeighborSampler
from repro.models import Trainer, TrainingConfig, base, create_model
from repro.models.trainer import evaluate_accuracy
from repro.tensor.tensor import Tensor, no_grad

MODELS = ["GCN", "GS-Pool", "G-GCN", "GAT"]
#: The models whose aggregation is a per-edge ``segment_reduce``.
EDGE_WISE = ["GS-Pool", "G-GCN", "GAT"]
HUB_FANOUT = 12


@pytest.fixture
def matching_graph():
    """A perfect matching (degree 1 everywhere) plus one isolated node.

    With fanout 1 the with-replacement sampler enumerates each neighbourhood
    exactly, so sampled and full-graph forwards must agree to float tolerance.
    """
    num_nodes = 11
    edges = np.array([[2 * i, 2 * i + 1] for i in range(5)])
    rng = np.random.default_rng(0)
    features = rng.standard_normal((num_nodes, 12))
    labels = rng.integers(0, 3, num_nodes)
    return Graph.from_edges(num_nodes, edges, features, labels, name="matching")


@pytest.fixture
def hub_graph():
    """Node 0 is a hub of degree 12; nodes 1–12 have degree 1–3; 13–15 are isolated.

    Every degree divides ``HUB_FANOUT``, which :class:`TilingSampler` relies on.
    """
    num_nodes = 16
    edges = [[0, leaf] for leaf in range(1, 13)] + [[1, 2], [3, 4], [4, 5]]
    rng = np.random.default_rng(0)
    features = rng.standard_normal((num_nodes, 12))
    labels = rng.integers(0, 3, num_nodes)
    graph = Graph.from_edges(num_nodes, np.array(edges), features, labels, name="hub")
    assert all(HUB_FANOUT % degree == 0 for degree in graph.degrees() if degree)
    return graph


class TilingSampler(NeighborSampler):
    """Repeats each true neighbourhood cyclically up to the fanout.

    When every degree divides the fanout, each neighbour appears equally
    often, so a sampled max, mean or softmax-weighted sum equals the
    full-neighbourhood one up to rounding.  (GCN's sampled mean weights the
    node itself by ``1 / (fanout + 1)`` rather than ``1 / (degree + 1)``, so
    this holds for the edge-wise aggregators only.)
    """

    def _sample_neighbors(self, nodes: np.ndarray, fanout: int) -> np.ndarray:
        rows = []
        for node in nodes:
            neighborhood = self.graph.neighbors(node)
            rows.append(np.resize(neighborhood if len(neighborhood) else [node], fanout))
        return np.asarray(rows, dtype=np.int64).reshape(len(nodes), fanout)


def _model(graph, model_name, block_size):
    model = create_model(
        model_name,
        in_features=graph.num_features,
        hidden_features=8,
        num_classes=graph.num_classes,
        compression=CompressionConfig(block_size=block_size),
        seed=1,
    )
    model.eval()
    return model


class TestFullForwardEquivalence:
    @pytest.mark.parametrize("model_name", MODELS)
    @pytest.mark.parametrize("block_size", [1, 4])
    def test_matches_full_fanout_sampled_forward(self, matching_graph, model_name, block_size):
        model = _model(matching_graph, model_name, block_size)
        sampler = NeighborSampler(matching_graph, fanouts=(1, 1), seed=0)
        batch = sampler.sample(np.arange(matching_graph.num_nodes))
        with no_grad():
            sampled = model.forward(batch, graph=matching_graph).data
        full = model.full_forward(matching_graph).data
        assert full.shape == (matching_graph.num_nodes, matching_graph.num_classes)
        assert np.allclose(sampled, full, atol=1e-10)

    @pytest.mark.parametrize("model_name", EDGE_WISE)
    @pytest.mark.parametrize("block_size", [1, 4])
    def test_skewed_degrees_match_tiled_sampled_forward(self, hub_graph, model_name, block_size):
        model = _model(hub_graph, model_name, block_size)
        sampler = TilingSampler(hub_graph, fanouts=(HUB_FANOUT, HUB_FANOUT))
        batch = sampler.sample(np.arange(hub_graph.num_nodes))
        with no_grad():
            sampled = model.forward(batch, graph=hub_graph).data
        full = model.full_forward(hub_graph).data
        assert np.allclose(sampled, full, atol=1e-10)

    @pytest.mark.parametrize("model_name", EDGE_WISE)
    @pytest.mark.parametrize("graph_name", ["small_graph", "hub_graph"])
    def test_restricted_layers_over_all_rows_equal_full_forward(
        self, request, graph_name, model_name
    ):
        """Served == offline at the kernel seam: both paths reduce through the
        same ``segment_reduce`` and ``weighted_segment_sum`` calls, so the
        serving layers over the full row set reproduce ``full_forward`` bit for
        bit.  ``hub_graph`` carries isolated rows, covering the fallbacks."""
        graph = request.getfixturevalue(graph_name)
        if graph_name == "hub_graph":
            assert (np.diff(graph.indptr) == 0).any()
        model = _model(graph, model_name, block_size=4)
        restriction = Restriction(graph, np.arange(graph.num_nodes))
        h = Tensor(graph.features)
        with no_grad():
            for layer in model.layers:
                h = layer.forward_restricted(h, restriction)
        assert np.array_equal(h.data, model.full_forward(graph).data)

    def test_rejects_mismatched_features(self, matching_graph):
        model = create_model("GCN", 12, 8, 3, seed=0)
        with pytest.raises(ValueError):
            model.full_forward(matching_graph, features=np.zeros((3, 12)))

    def test_predict_full_shape(self, matching_graph):
        model = create_model("GCN", 12, 8, 3, seed=0)
        predictions = model.predict_full(matching_graph)
        assert predictions.shape == (matching_graph.num_nodes,)
        assert predictions.dtype.kind == "i"


class TestCombineFirst:
    """GCN's narrowing layers after the first run ``Â·(H·Wᵀ) + b``: the same
    logits as the aggregate-first formula up to rounding, and the serving
    layers over every row reproduce them bit for bit."""

    @pytest.mark.parametrize(
        "hidden, classes, num_layers, combines_first, widths",
        [
            # The layer-1 rows are stored times layer 2's Wᵀ, 3 wide.
            (16, 3, 2, [False, True], [3, 3]),
            (16, 3, 3, [False, False, True], [16, 3, 3]),
            (4, 8, 2, [False, False], [4, 8]),    # classes >= hidden: nothing reordered
            (8, 3, 1, [False], [3]),              # the first layer never combines first
        ],
    )
    def test_narrowing_layers_after_the_first_combine_first(
        self, hidden, classes, num_layers, combines_first, widths
    ):
        model = create_model("GCN", 12, hidden, classes, num_layers=num_layers, seed=0)
        assert [layer.combines_first for layer in model.layers] == combines_first
        assert [model.stored_width(k) for k in range(1, num_layers + 1)] == widths

    @pytest.mark.parametrize("num_layers", [2, 3])
    @pytest.mark.parametrize("block_size", [1, 4])
    def test_matches_the_aggregate_first_formula(self, hub_graph, num_layers, block_size):
        model = create_model(
            "GCN", hub_graph.num_features, 16, 3, num_layers=num_layers,
            compression=CompressionConfig(block_size=block_size), seed=1,
        )
        assert model.layers[-1].combines_first
        operator = hub_graph.random_walk_adjacency(add_self_loops=True)
        h = Tensor(hub_graph.features)
        with no_grad():
            for layer in model.layers:
                h = base.apply_linear(layer.fc, Tensor(operator @ h.data))
                h = h.relu() if layer.activation else h
            np.testing.assert_allclose(model.full_forward(hub_graph).data, h.data, rtol=1e-12)

    @pytest.mark.parametrize("num_layers", [2, 3])
    def test_restricted_layers_over_all_rows_equal_full_forward(self, hub_graph, num_layers):
        """Fed its plain input rows, a combine-first layer multiplies them by
        ``Wᵀ`` itself; fed the previous layer's ``project=`` rows, it runs the
        SpMM alone.  Both give ``full_forward``'s bits."""
        model = create_model("GCN", hub_graph.num_features, 16, 3, num_layers=num_layers, seed=1)
        restriction = Restriction(hub_graph, np.arange(hub_graph.num_nodes))
        expected = model.full_forward(hub_graph).data
        plain = projected = Tensor(hub_graph.features)
        with no_grad():
            for k, layer in enumerate(model.layers, start=1):
                plain = layer.forward_restricted(plain, restriction)
                projected = layer.forward_restricted(
                    projected, restriction, project=model.stored_projection(k)
                )
                assert projected.shape[1] == model.stored_width(k)
        assert plain.data.tobytes() == expected.tobytes()
        assert projected.data.tobytes() == expected.tobytes()


class TestCoreSlabs:
    """G-GCN's and GS-Pool's full-graph sweeps (``parallel_segment_reduce``)
    and GCN's and GAT's full-graph SpMMs (``parallel_spmm``) run on one row
    slab per core; the core count must not change a bit."""

    @pytest.mark.parametrize("model_name", MODELS)
    def test_logits_do_not_depend_on_the_core_count(self, hub_graph, monkeypatch, model_name):
        assert (np.diff(hub_graph.indptr) == 0).any()
        model = _model(hub_graph, model_name, block_size=4)
        logits = {}
        for cores in (1, 2, 7):
            monkeypatch.setattr(base, "_core_count", lambda cores=cores: cores)
            logits[cores] = model.full_forward(hub_graph).data
        assert np.array_equal(logits[1], logits[2])
        assert np.array_equal(logits[1], logits[7])

    def test_forked_child_rebuilds_the_slab_pool(self, hub_graph, monkeypatch):
        """A child forked after the pool exists inherits a pool object with no
        threads behind it; it must build its own instead of hanging on it."""
        monkeypatch.setattr(base, "_core_count", lambda: 2)
        model = _model(hub_graph, "G-GCN", block_size=4)
        expected = model.full_forward(hub_graph).data
        assert base._slab_pool is not None  # the parent's pool, now inherited

        def child(connection):
            logits = model.full_forward(hub_graph).data
            connection.send((logits, base._slab_pool[0] == os.getpid()))

        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        with warnings.catch_warnings():
            # Python >= 3.12 warns on forking a process that runs threads.
            warnings.simplefilter("ignore", DeprecationWarning)
            process = context.Process(target=child, args=(sender,))
            process.start()
        try:
            assert receiver.poll(60), "forked child hung on the inherited slab pool"
            logits, rebuilt = receiver.recv()
        finally:
            process.join(10)
            if process.is_alive():
                process.kill()
        assert process.exitcode == 0
        assert rebuilt
        assert np.array_equal(logits, expected)


class TestFullEvaluation:
    def test_evaluate_accuracy_full_mode(self, small_graph):
        model = create_model("GCN", small_graph.num_features, 16, small_graph.num_classes, seed=0)
        nodes = np.arange(30)
        accuracy = evaluate_accuracy(model, small_graph, nodes, mode="full")
        assert 0.0 <= accuracy <= 1.0
        # Full-graph inference is deterministic.
        assert accuracy == evaluate_accuracy(model, small_graph, nodes, mode="full")
        expected = float(
            (model.predict_full(small_graph)[nodes] == small_graph.labels[nodes]).mean()
        )
        assert accuracy == expected

    def test_full_mode_restores_training_flag(self, small_graph):
        model = create_model("GCN", small_graph.num_features, 16, small_graph.num_classes, seed=0)
        evaluate_accuracy(model, small_graph, np.arange(10), mode="full")
        assert model.training

    def test_unknown_mode_rejected(self, small_graph):
        model = create_model("GCN", small_graph.num_features, 16, small_graph.num_classes, seed=0)
        with pytest.raises(ValueError):
            evaluate_accuracy(model, small_graph, np.arange(10), mode="bogus")

    def test_sampled_mode_requires_fanouts(self, small_graph):
        model = create_model("GCN", small_graph.num_features, 16, small_graph.num_classes, seed=0)
        with pytest.raises(ValueError):
            evaluate_accuracy(model, small_graph, np.arange(10))

    def test_trainer_full_eval_mode(self, small_graph):
        model = create_model(
            "GCN",
            small_graph.num_features,
            16,
            small_graph.num_classes,
            compression=CompressionConfig(block_size=4),
            seed=0,
        )
        config = TrainingConfig(epochs=2, batch_size=32, fanouts=(4, 3), seed=0, eval_mode="full")
        trainer = Trainer(model, small_graph, config)
        history = trainer.fit()
        assert len(history.val_accuracy) == 2
        assert all(0.0 <= acc <= 1.0 for acc in history.val_accuracy)
        assert 0.0 <= trainer.test_accuracy() <= 1.0

    def test_invalid_eval_mode_rejected(self):
        with pytest.raises(ValueError):
            TrainingConfig(eval_mode="nope")
