"""Tests for the compiled serving fast path (restricted operators, no subgraphs).

The headline invariants:

* the compiled hot path never constructs a ``Graph`` per flush — asserted by
  counting ``Graph.subgraph`` calls during serving;
* ``forward_restricted`` agrees with ``forward_full`` for every model, and
  served predictions equal offline ``full_forward`` cold and warm;
* the per-stage timing breakdown is populated, rendered and reset;
* the hot-path ``ServingConfig`` knobs validate, and no worker surface takes
  a serving mode or a cache retention policy.
"""

from __future__ import annotations

import dataclasses
import inspect
import time

import numpy as np
import pytest

from repro.compression import CompressionConfig
from repro.graph import Graph, Restriction
from repro.graph.datasets import synthetic_graph
from repro.models import create_model
from repro.serving import (
    GraphShard,
    InferenceServer,
    ManualClock,
    ServingConfig,
    ShardWorker,
    SystemClock,
)
from repro.serving.procplane import WorkerSpec
from repro.tensor.tensor import Tensor, no_grad

MODELS = ["GCN", "GS-Pool", "G-GCN", "GAT"]


def _model(graph, name="GCN", block_size=1, seed=0):
    return create_model(
        name,
        in_features=graph.num_features,
        hidden_features=16,
        num_classes=graph.num_classes,
        compression=CompressionConfig(block_size=block_size),
        seed=seed,
    )


def _server(model, graph, clock=None, **overrides):
    defaults = dict(num_shards=2, max_batch_size=8, max_delay=0.5, cache_capacity=1024, seed=0)
    defaults.update(overrides)
    return InferenceServer(model, graph, ServingConfig(**defaults), clock=clock or ManualClock())


class TestForwardRestricted:
    @pytest.mark.parametrize("name", MODELS)
    def test_matches_full_graph_rows(self, small_graph, name):
        model = _model(small_graph, name)
        rows = np.unique(np.random.default_rng(0).choice(small_graph.num_nodes, size=40))
        restriction = Restriction(small_graph, rows)
        with no_grad():
            h_cols = Tensor(small_graph.features[restriction.cols])
            restricted = model.layers[0].forward_restricted(h_cols, restriction).data
            full = model.layers[0].forward_full(Tensor(small_graph.features), small_graph).data
        np.testing.assert_array_equal(restricted, full[rows])

    def test_isolated_rows_fall_back_to_self(self):
        # Node 2 is isolated: every model must reproduce its full-graph value.
        edges = np.array([[0, 1], [1, 3]])
        graph = Graph.from_edges(4, edges, np.random.default_rng(0).normal(size=(4, 6)),
                                 np.zeros(4, dtype=np.int64))
        rows = np.array([1, 2])
        restriction = Restriction(graph, rows)
        for name in MODELS:
            model = create_model(name, 6, 8, 2, seed=0)
            with no_grad():
                h_cols = Tensor(graph.features[restriction.cols])
                restricted = model.layers[0].forward_restricted(h_cols, restriction).data
                full = model.layers[0].forward_full(Tensor(graph.features), graph).data
            np.testing.assert_array_equal(restricted, full[rows])


class TestZeroGraphConstruction:
    def test_compiled_path_never_calls_subgraph(self, small_graph, monkeypatch):
        model = _model(small_graph)
        server = _server(model, small_graph)  # built BEFORE patching: shards may subgraph
        calls = []
        original = Graph.subgraph

        def counting_subgraph(self, nodes, name=None):
            calls.append(len(nodes))
            return original(self, nodes, name)

        monkeypatch.setattr(Graph, "subgraph", counting_subgraph)
        nodes = np.random.default_rng(1).choice(small_graph.num_nodes, size=60, replace=True)
        server.predict(nodes)
        assert calls == []  # zero per-flush Graph construction
        # Positive control: the patch really intercepts Graph.subgraph, so the
        # empty list above is not an artefact of a monkeypatch that missed.
        small_graph.subgraph(np.arange(4))
        assert calls == [4]

    def test_operator_plans_precomputed_at_build_time(self, small_graph):
        model = _model(small_graph)
        server = _server(model, small_graph)
        for shard in server.shards:
            # GCN's propagation operator was normalised during server build.
            assert ("random_walk", True) in shard.graph._operator_cache


class TestHotPathEquivalence:
    @pytest.mark.parametrize("name", MODELS)
    def test_compiled_serves_full_forward_predictions(self, small_graph, name):
        model = _model(small_graph, name)
        nodes = np.random.default_rng(2).choice(small_graph.num_nodes, size=80, replace=True)
        reference = model.full_forward(small_graph).data.argmax(axis=-1)[nodes]
        server = _server(model, small_graph, num_shards=3)
        assert np.array_equal(server.predict(nodes), reference)
        assert np.array_equal(server.predict(nodes), reference)  # warm

    def test_compiled_with_block_circulant_compression(self, small_graph):
        model = _model(small_graph, "GCN", block_size=4)
        reference = model.full_forward(small_graph).data.argmax(axis=-1)
        server = _server(model, small_graph)
        nodes = np.arange(small_graph.num_nodes)
        assert np.array_equal(server.predict(nodes), reference[nodes])


class TestSlabbedCombination:
    """Served rows stay bitwise ``full_forward``'s with the restricted
    combination cut into core slabs (forced with a patched core count, so a
    one-CPU host runs the slab path too)."""

    @pytest.mark.parametrize("cores", [2, 3])
    def test_refresh_windows_serve_full_forward_rows(self, monkeypatch, cores):
        from repro.models import base

        graph = synthetic_graph(
            num_nodes=900, num_edges=9000, num_features=16, num_classes=4, seed=11,
            name="slab-graph",
        )
        model = _model(graph, "GCN", block_size=8)
        monkeypatch.setattr(base, "_core_count", lambda: cores)
        server = _server(model, graph, max_batch_size=64)
        original, slabbed = base._run_slabs, []

        def counting(work, slabs, pool_cores):
            slabbed.append(len(slabs))
            return original(work, slabs, pool_cores)

        rng = np.random.default_rng(4)
        for _ in range(3):
            # A refresh: new weights, every stored row invalid; the worker's
            # layer-1 memo (weight-free Â·X) is kept.
            for parameter in model.parameters():
                parameter.data[...] *= 1.0 + 0.1 * rng.standard_normal(parameter.data.shape)
                parameter.bump_version()
            with no_grad():
                layer1 = model.layers[0].forward_full(Tensor(graph.features), graph).data
                logits = model.layers[1].forward_full(Tensor(layer1), graph).data
            nodes = rng.choice(graph.num_nodes, size=128, replace=False)
            monkeypatch.setattr(base, "_run_slabs", counting)
            served = server.predict(nodes)
            monkeypatch.setattr(base, "_run_slabs", original)
            assert np.array_equal(served, logits.argmax(axis=-1)[nodes])
            store = server.halo_store
            for layer, rows in ((1, model.stored_rows(1, layer1)), (2, logits)):
                known = np.flatnonzero(store._layers[layer][1])
                assert len(known)
                assert store._layers[layer][0][known].tobytes() == rows[known].tobytes()
        assert slabbed and all(1 < count <= cores for count in slabbed)


class TestBitwiseOracle:
    """Every stored layer row and every served logit is byte-equal to the
    full-graph layer outputs, for every model, dense and block-circulant
    weights, and one or two combination slabs."""

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("block_size", [1, 8])
    @pytest.mark.parametrize("name", MODELS)
    def test_served_rows_equal_full_forward_rows(self, monkeypatch, name, block_size, cores):
        self._check(monkeypatch, name, block_size, cores, hidden=64, classes=4, num_layers=2)

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("block_size", [1, 8])
    @pytest.mark.parametrize(
        "hidden, classes, num_layers, combines_first",
        [
            # 16 -> 128 -> 128 -> 4: layer 2 is no memo layer and projects
            # its rows for layer 3, which combines first.
            (128, 4, 3, [False, False, True]),
            # 16 -> 4 -> 8: classes >= hidden, nothing is reordered.
            (4, 8, 2, [False, False]),
        ],
    )
    def test_gcn_shapes(self, monkeypatch, block_size, cores, hidden, classes, num_layers,
                        combines_first):
        model = self._check(monkeypatch, "GCN", block_size, cores, hidden, classes, num_layers)
        assert [layer.combines_first for layer in model.layers] == combines_first

    def _check(self, monkeypatch, name, block_size, cores, hidden, classes, num_layers):
        from repro.models import base

        graph = synthetic_graph(
            num_nodes=900, num_edges=9000, num_features=16, num_classes=4, seed=11,
            name="oracle-graph",
        )
        model = create_model(
            name, in_features=16, hidden_features=hidden, num_classes=classes,
            num_layers=num_layers, compression=CompressionConfig(block_size=block_size), seed=0,
        )
        monkeypatch.setattr(base, "_core_count", lambda: cores)
        server = _server(model, graph, max_batch_size=64)
        served = []
        exact_logits = ShardWorker._exact_logits

        def recording(worker, seeds):
            logits = exact_logits(worker, seeds)
            served.append((np.array(seeds), logits))
            return logits

        monkeypatch.setattr(ShardWorker, "_exact_logits", recording)
        rng = np.random.default_rng(4)
        server.predict(rng.choice(graph.num_nodes, size=100, replace=False))
        # A refresh: new weights, every stored row invalid.
        for parameter in model.parameters():
            parameter.data[...] *= 1.0 + 0.1 * rng.standard_normal(parameter.data.shape)
            parameter.bump_version()
        served.clear()
        server.predict(rng.choice(graph.num_nodes, size=200, replace=False))
        with no_grad():
            outputs, h = [], Tensor(graph.features)
            for layer in model.layers:
                h = layer.forward_full(h, graph)
                outputs.append(h.data)
        assert served
        for nodes, logits in served:
            assert logits.tobytes() == outputs[-1][nodes].tobytes()
        store = server.halo_store
        for layer, rows in enumerate(outputs, start=1):
            known = np.flatnonzero(store._layers[layer][1])
            assert len(known)
            stored = model.stored_rows(layer, rows)
            assert store._layers[layer][0][known].tobytes() == stored[known].tobytes()
        return model


#: Sparse enough that each of two shards misses some nodes, halo included.
SPARSE = synthetic_graph(
    num_nodes=200, num_edges=300, num_features=8, num_classes=3, seed=7, name="sparse-graph"
)


def _foreign(shard):
    """One node the shard does not hold."""
    outside = np.setdiff1d(np.arange(SPARSE.num_nodes), shard.nodes)
    assert len(outside)
    return int(outside[0])


class TestGlobalIdPath:
    """The worker probes its store with the batch's global ids and makes
    shard-local ids only for the top-layer rows it recomputes."""

    def _count_to_local(self, monkeypatch):
        calls = []
        to_local = GraphShard.to_local

        def counting(self, global_ids):
            calls.append(len(global_ids))
            return to_local(self, global_ids)

        monkeypatch.setattr(GraphShard, "to_local", counting)
        return calls

    @pytest.mark.parametrize("halo_tier", [True, False])
    def test_a_fully_hit_batch_makes_no_local_ids(self, monkeypatch, halo_tier):
        model = _model(SPARSE)
        reference = model.full_forward(SPARSE).data.argmax(axis=-1)
        server = _server(model, SPARSE, halo_tier=halo_tier)
        nodes = np.arange(SPARSE.num_nodes)
        server.predict(nodes)
        calls = self._count_to_local(monkeypatch)
        assert np.array_equal(server.predict(nodes), reference)
        assert calls == []
        # Positive control: the patch intercepts the shards' translations.
        server.shards[0].to_local(server.shards[0].core_nodes[:3])
        assert calls == [3]

    def test_only_the_top_layer_misses_are_translated(self, monkeypatch):
        model = _model(SPARSE)
        reference = model.full_forward(SPARSE).data.argmax(axis=-1)
        server = _server(model, SPARSE, halo_tier=False)
        warm, cold = np.arange(0, 100), np.arange(100, 120)
        server.predict(warm)
        calls = self._count_to_local(monkeypatch)
        both = np.concatenate([warm, cold])
        assert np.array_equal(server.predict(both), reference[both])
        assert sum(calls) == len(cold)

    @pytest.mark.parametrize("stored", [False, True])
    def test_a_node_the_shard_does_not_hold_raises_key_error(self, stored):
        model = _model(SPARSE)
        reference = model.full_forward(SPARSE).data.argmax(axis=-1)
        server = _server(model, SPARSE, halo_tier=True)
        worker = server.workers[0]
        foreign = _foreign(worker.shard)
        if stored:  # the shared store then holds the foreign node's row
            server.predict(np.arange(SPARSE.num_nodes))
            assert server.halo_store.contains(model.num_layers, foreign)
        own = worker.shard.core_nodes[:3]
        served = worker.batches_served
        with pytest.raises(KeyError, match=rf"\[{foreign}\] are not held by shard 0"):
            worker.predict(np.append(own, foreign))
        for outside in (-1, SPARSE.num_nodes):
            with pytest.raises(KeyError, match="not held by shard 0"):
                worker.predict(np.append(own, outside))
        assert worker.batches_served == served
        assert np.array_equal(worker.predict(own), reference[own])

    def test_a_worker_process_raises_the_key_error_to_its_caller(self):
        model = _model(SPARSE)
        reference = model.full_forward(SPARSE).data.argmax(axis=-1)
        server = InferenceServer(
            model,
            SPARSE,
            ServingConfig(num_shards=2, executor="process", max_batch_size=8, max_delay=0.0),
        )
        try:
            nodes = np.arange(SPARSE.num_nodes)
            assert np.array_equal(server.predict(nodes), reference)  # every row stored
            worker = server.workers[0]
            own = worker.shard.core_nodes[:3]
            with pytest.raises(KeyError, match="not held by shard 0"):
                worker.predict(np.append(own, _foreign(worker.shard)))
            assert np.array_equal(worker.predict(own), reference[own])
        finally:
            server.shutdown()


class TestStageTimings:
    def test_breakdown_populated_and_reset(self, small_graph):
        # In-process workers time their stages on the server's clock, and a
        # ManualClock does not move inside a stage: this one runs on wall
        # time, which is perf_counter itself.
        server = _server(_model(small_graph), small_graph, clock=SystemClock())
        assert all(worker.timings._clock is time.perf_counter for worker in server.workers)
        server.predict(np.arange(small_graph.num_nodes))
        stats = server.stats()
        assert stats.stage_seconds["cache_gather"] > 0
        assert stats.stage_seconds["aggregation"] > 0
        assert stats.stage_seconds["combination"] > 0
        assert stats.stage_seconds["cache_scatter"] > 0
        assert stats.stage_total > 0
        assert "flush stages" in stats.render()
        server.reset_stats()
        assert server.stats().stage_total == 0.0


class TestConfigKnobs:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError, match="cache_capacity"):
            ServingConfig(cache_capacity=-1)
        with pytest.raises(ValueError, match="executor"):
            ServingConfig(executor="gpu")
        with pytest.raises(TypeError, match="executor_workers"):
            ServingConfig(executor_workers=0)

    def test_workers_take_no_mode_or_retention_arguments(self):
        # Serving is exact over one direct-mapped store: no worker surface
        # carries a serving mode, a sampler or a retention policy.
        deleted = {"mode", "fanouts", "seed", "sampler", "policy", "pinned_nodes"}
        assert not deleted & set(inspect.signature(ShardWorker).parameters)
        spec_fields = {field.name for field in dataclasses.fields(WorkerSpec)}
        assert not (deleted | {"cache_policy", "cache_pinned", "cache_initial_pins"}) & spec_fields
