"""End-to-end tests of the online inference server.

The engine's contract: served predictions are identical to
offline full-graph inference for the same nodes, everything is deterministic
under a fixed seed + :class:`ManualClock`, and the embedding cache can never
survive a weight update.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.compression import CompressionConfig
from repro.models import Trainer, TrainingConfig, create_model
from repro.serving import InferenceServer, ManualClock, ServingConfig

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


def _server(model, graph, **overrides):
    defaults = dict(num_shards=2, max_batch_size=8, max_delay=0.5, cache_capacity=1024, seed=0)
    defaults.update(overrides)
    return InferenceServer(model, graph, ServingConfig(**defaults), clock=ManualClock())


class TestExactServing:
    @pytest.mark.parametrize("name", MODELS)
    def test_matches_full_graph_inference(self, small_graph, name):
        model = _model(small_graph, name)
        reference = model.full_forward(small_graph).data.argmax(axis=-1)
        server = _server(model, small_graph, num_shards=3)
        nodes = np.random.default_rng(0).choice(small_graph.num_nodes, size=60, replace=True)
        predictions = server.predict(nodes)
        assert np.array_equal(predictions, reference[nodes])

    def test_matches_with_block_circulant_compression(self, small_graph):
        model = _model(small_graph, "GCN", block_size=4)
        reference = model.full_forward(small_graph).data.argmax(axis=-1)
        server = _server(model, small_graph)
        nodes = np.arange(small_graph.num_nodes)
        assert np.array_equal(server.predict(nodes), reference[nodes])

    def test_warm_cache_still_matches_and_hits(self, small_graph):
        model = _model(small_graph)
        reference = model.full_forward(small_graph).data.argmax(axis=-1)
        server = _server(model, small_graph)
        nodes = np.arange(0, small_graph.num_nodes, 2)
        server.predict(nodes)
        cold_misses = server.stats().cache.misses
        server.reset_stats()
        assert np.array_equal(server.predict(nodes), reference[nodes])
        warm = server.stats()
        assert warm.cache_hit_rate == 1.0
        assert warm.cache.misses < cold_misses

    def test_cache_disabled_still_exact(self, small_graph):
        model = _model(small_graph)
        reference = model.full_forward(small_graph).data.argmax(axis=-1)
        server = _server(model, small_graph, cache_capacity=0)
        nodes = np.arange(20)
        assert np.array_equal(server.predict(nodes), reference[nodes])
        assert server.stats().cache.hits == 0

    @pytest.mark.parametrize("name", MODELS)
    def test_tiny_lru_cache_under_eviction_pressure_stays_exact(self, small_graph, name):
        model = _model(small_graph, name)
        reference = model.full_forward(small_graph).data.argmax(axis=-1)
        server = _server(model, small_graph, cache_capacity=8)
        nodes = np.random.default_rng(3).choice(small_graph.num_nodes, size=80, replace=True)
        assert np.array_equal(server.predict(nodes), reference[nodes])
        assert server.stats().cache.evictions > 0


class TestDeterminism:
    @pytest.mark.parametrize("executor", ["serial", "concurrent"])
    def test_identical_runs_produce_identical_results(self, small_graph, executor):
        nodes = np.random.default_rng(1).choice(small_graph.num_nodes, size=40, replace=True)
        outcomes = []
        for _ in range(2):
            model = _model(small_graph)
            with _server(model, small_graph, executor=executor) as server:
                predictions = server.predict(nodes)
                stats = server.stats()
            outcomes.append((predictions, stats.batch_sizes, stats.latencies))
        assert np.array_equal(outcomes[0][0], outcomes[1][0])
        assert np.array_equal(outcomes[0][1], outcomes[1][1])
        assert np.array_equal(outcomes[0][2], outcomes[1][2])

    def test_manual_clock_latencies_are_simulated_time(self, small_graph):
        model = _model(small_graph)
        clock = ManualClock()
        server = InferenceServer(
            model,
            small_graph,
            ServingConfig(num_shards=1, max_batch_size=4, max_delay=1.0, seed=0),
            clock=clock,
        )
        first = server.submit(0)
        clock.advance(0.3)
        second = server.submit(1)
        assert not first.done and not second.done  # under batch size, delay not hit
        clock.advance(0.8)  # oldest is now 1.1s old -> due
        server.poll()
        assert first.done and second.done
        assert first.latency == pytest.approx(1.1)
        assert second.latency == pytest.approx(0.8)
        stats = server.stats()
        assert stats.delay_flushes == 1 and stats.size_flushes == 0
        assert stats.p95_latency >= stats.p50_latency

    def test_batch_size_triggers_immediate_flush(self, small_graph):
        model = _model(small_graph)
        server = _server(model, small_graph, num_shards=1, max_batch_size=2)
        first = server.submit(3)
        assert not first.done
        second = server.submit(4)
        assert first.done and second.done  # size trigger, no clock advance needed
        assert first.latency == 0.0
        assert first.batch_size == 2
        assert server.stats().size_flushes == 1


class TestCacheInvalidationUnderTraining:
    def test_serving_after_a_training_step_is_not_stale(self, small_graph):
        model = _model(small_graph)
        server = _server(model, small_graph)
        nodes = np.arange(small_graph.num_nodes)
        before = server.predict(nodes)
        assert np.array_equal(before, model.full_forward(small_graph).data.argmax(axis=-1))

        # One optimiser step bumps every Parameter.version via the trainer.
        signature = model.weight_signature()
        trainer = Trainer(
            model, small_graph, TrainingConfig(epochs=1, fanouts=(4, 3), seed=0, learning_rate=0.5)
        )
        trainer.train_epoch(0)
        assert model.weight_signature() != signature

        after = server.predict(nodes)
        fresh = model.full_forward(small_graph).data.argmax(axis=-1)
        assert np.array_equal(after, fresh)
        assert not np.array_equal(after, before)  # lr=0.5 step must move something
        assert server.stats().cache.invalidations >= 1

    def test_manual_weight_update_with_bump_version_invalidates(self, small_graph):
        model = _model(small_graph)
        server = _server(model, small_graph, num_shards=1)
        nodes = np.arange(16)
        server.predict(nodes)
        parameter = model.parameters()[0]
        parameter.data[...] = -parameter.data
        parameter.bump_version()
        after = server.predict(nodes)
        fresh = model.full_forward(small_graph).data.argmax(axis=-1)[nodes]
        assert np.array_equal(after, fresh)


class TestDispatchAndSharding:
    def test_round_robin_spreads_batches_over_replicas(self, small_graph):
        model = _model(small_graph)
        server = _server(
            model, small_graph, num_shards=1, num_replicas=2, max_batch_size=4,
        )
        server.predict(np.arange(16))
        loads = [worker.batches for worker in server.stats().workers]
        assert len(loads) == 2 and loads[0] == loads[1] == 2

    def test_requests_route_to_owning_shard(self, small_graph):
        model = _model(small_graph)
        server = _server(model, small_graph, num_shards=3, max_batch_size=4)
        nodes = np.arange(small_graph.num_nodes)
        server.predict(nodes)
        stats = server.stats()
        for load in stats.workers:
            assert load.nodes == load.core_nodes  # every core node requested once
        assert stats.completed_requests == small_graph.num_nodes

    @pytest.mark.parametrize("name", MODELS)
    def test_every_shard_holds_the_model_depth_halo(self, small_graph, name):
        # The halo depth is the model's, never a knob: shallower would
        # corrupt boundary rows, deeper would only add work.
        assert not hasattr(ServingConfig(), "halo_hops")
        nodes = np.arange(small_graph.num_nodes)
        for num_layers in (1, 2, 3):
            model = create_model(
                name,
                in_features=small_graph.num_features,
                hidden_features=16,
                num_classes=small_graph.num_classes,
                num_layers=num_layers,
                seed=0,
            )
            reference = model.full_forward(small_graph).data.argmax(axis=-1)
            server = _server(model, small_graph, num_shards=3)
            assert [shard.halo_hops for shard in server.shards] == [num_layers] * 3
            assert np.array_equal(server.predict(nodes), reference[nodes])


class TestValidationAndStats:
    def test_invalid_node_rejected(self, small_graph):
        server = _server(_model(small_graph), small_graph)
        with pytest.raises(ValueError):
            server.submit(small_graph.num_nodes)
        with pytest.raises(ValueError):
            server.submit(-1)

    def test_invalid_config_values(self):
        with pytest.raises(ValueError):
            ServingConfig(num_shards=0)
        with pytest.raises(ValueError):
            ServingConfig(health_failure_threshold=0)

    def test_deleted_knobs_are_not_fields(self):
        # Serving is exact with an LRU cache and a model-depth halo; the
        # heartbeat interval is a procplane constant; there is no hedged
        # dispatch and no work stealing; the flush pool has one thread per
        # replica and the front-door pump re-polls at its own default.
        # Retries run at once, capped only by max_retries; a replica dies on
        # consecutive failures alone and is always rebuilt on the next tick;
        # dispatch is round-robin.  None is configurable.
        for field, value in (
            ("mode", "exact"),
            ("cache_policy", "lru"),
            ("halo_hops", 2),
            ("process_heartbeat_interval", 1.0),
            ("hedge_after", 0.01),
            ("work_stealing", True),
            ("executor_workers", 4),
            ("ingress_poll_interval", 0.01),
            ("retry_backoff", 0.001),
            ("retry_backoff_cap", 0.01),
            ("retry_budget", 4),
            ("retry_budget_refill", 0.5),
            ("health_latency_threshold", 0.01),
            ("degraded_policy", "stale_ok"),
            ("supervisor_failure_budget", 1),
            ("supervisor_window", 10.0),
            ("supervisor", True),
            ("health_cooldown", 0.05),
            ("dispatch", "least_loaded"),
        ):
            with pytest.raises(TypeError):
                ServingConfig(**{field: value})
        assert len(dataclasses.fields(ServingConfig)) == 22

    def test_predictions_returned_in_submission_order(self, small_graph):
        model = _model(small_graph)
        reference = model.full_forward(small_graph).data.argmax(axis=-1)
        server = _server(model, small_graph, num_shards=3, max_batch_size=5)
        nodes = np.array([17, 3, 99, 3, 42, 0])
        assert np.array_equal(server.predict(nodes), reference[nodes])

    def test_render_mentions_the_key_metrics(self, small_graph):
        server = _server(_model(small_graph), small_graph)
        server.predict(np.arange(10))
        text = server.stats().render()
        assert "latency p50" in text and "embedding cache" in text and "worker" in text
        assert "shards" in server.describe()
