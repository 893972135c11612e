"""End-to-end tests of the online inference server.

The engine's contract: served predictions are identical to
offline full-graph inference for the same nodes, everything is deterministic
under a fixed seed + :class:`ManualClock`, and the embedding cache can never
survive a weight update.
"""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import repro.serving.worker
from repro.compression import CompressionConfig
from repro.models import Trainer, TrainingConfig, create_model
from repro.nn.module import Module
from repro.serving import CacheStats, InferenceServer, ManualClock, ServingConfig
from repro.serving.batcher import BLOCK_ROWS

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

    #: (halo_tier, cache_capacity, shards, replicas, executor) -> the store
    #: every worker reads: one shared store, a private one each, or none.
    STORE_RULE = [
        (True, 1024, 1, 1, "serial", "shared"),
        (True, 0, 2, 1, "serial", "shared"),
        (True, 8, 2, 2, "concurrent", "shared"),
        (False, 1024, 2, 1, "serial", "private"),
        (False, 8, 3, 1, "concurrent", "private"),
        (False, 0, 2, 1, "serial", "none"),
        (False, 0, 1, 2, "serial", "none"),
        (False, 1024, 2, 1, "process", "private"),
    ]

    @pytest.mark.parametrize(
        "halo_tier, cache_capacity, num_shards, num_replicas, executor, store", STORE_RULE
    )
    def test_the_store_rule(
        self, monkeypatch, small_graph, halo_tier, cache_capacity, num_shards, num_replicas,
        executor, store,
    ):
        model = _model(small_graph)
        reference = model.full_forward(small_graph).data.argmax(axis=-1)
        settings = dict(
            halo_tier=halo_tier,
            cache_capacity=cache_capacity,
            num_shards=num_shards,
            num_replicas=num_replicas,
            executor=executor,
        )
        server = _server(model, small_graph, **settings)
        try:
            assert (server.halo_store is not None) == (store == "shared")
            stores = [getattr(worker, "store", None) for worker in server.workers]
            if store == "shared":
                assert all(each is server.halo_store for each in stores)
            elif store == "private" and executor != "process":
                assert all(each is not None for each in stores)
                assert len({id(each) for each in stores}) == len(stores)
            elif store == "none":
                assert stores == [None] * len(stores)
            nodes = np.arange(small_graph.num_nodes)
            assert np.array_equal(server.predict(nodes), reference)
            cold = server.stats()
            cold_workers = [dataclasses.replace(worker.cache_stats) for worker in server.workers]
            # Count the plans the second pass builds in this process; a
            # worker process builds its own, which only its stage seconds
            # show (in process they read the server's ManualClock, which
            # no stage moves).
            plans = []
            build = repro.serving.worker.Restriction
            with monkeypatch.context() as patch:
                patch.setattr(
                    repro.serving.worker,
                    "Restriction",
                    lambda *args: plans.append(args) or build(*args),
                )
                assert np.array_equal(server.predict(nodes), reference)
            warm = server.stats()
        finally:
            server.shutdown()
        assert warm.halo_tier == (store == "shared")
        if store == "none":
            assert warm.cache.hits == 0 and warm.cache.misses > cold.cache.misses
            assert plans  # the count sees every plan an in-process worker builds
            return
        # One replica per shard, or one store for all: the second pass over
        # the same nodes is all hits in the store each worker reads, and it
        # builds no plan.
        assert warm.cache.misses == cold.cache.misses
        assert warm.cache.hits > cold.cache.hits
        assert plans == []
        assert warm.stage_seconds["plan_build"] == cold.stage_seconds["plan_build"]
        if store == "private":
            assert warm.halo == CacheStats()  # no shared counts at all
        if store == "private" and executor != "process":
            # A boundary row computed on shard 0 is recomputed on shard 1 ...
            first, second = stores[0], stores[1]
            assert any(
                first.contains(1, node) and second.contains(1, node)
                for node in range(small_graph.num_nodes)
            )
            # ... so on the first pass each worker counted what it counts
            # serving its own shard on a server of its own: no hit crosses
            # workers.
            for shard in server.shards:
                alone = _server(model, small_graph, **settings)
                alone.predict(shard.core_nodes)
                alone.shutdown()
                assert alone.workers[shard.part_id].cache_stats == cold_workers[shard.part_id]

    @pytest.mark.parametrize("halo_tier", [True, False])
    @pytest.mark.parametrize("name", MODELS)
    def test_every_model_stays_exact_on_either_store(self, small_graph, name, halo_tier):
        model = _model(small_graph, name)
        reference = model.full_forward(small_graph).data.argmax(axis=-1)
        server = _server(model, small_graph, cache_capacity=8, halo_tier=halo_tier)
        nodes = np.random.default_rng(3).choice(small_graph.num_nodes, size=80, replace=True)
        assert np.array_equal(server.predict(nodes), reference[nodes])


class TestDeterminism:
    @pytest.mark.parametrize("executor", ["serial", "concurrent"])
    # max_delay 0.01 outlasts the 4 ms timeout: deadlines come due first.
    @pytest.mark.parametrize("max_delay", [0.0, 0.002, 0.01])
    @pytest.mark.parametrize("overload_policy", [None, "reject", "shed_oldest"])
    @pytest.mark.parametrize("clock_step", [0.0, 0.0005, 0.002])
    def test_identical_runs_produce_identical_results(
        self, small_graph, executor, max_delay, overload_policy, clock_step
    ):
        # The same stream served twice, once as submit_many windows and once
        # as one submit() per node: under a ManualClock the window's polling
        # rule must cut exactly the batches of polling after every request.
        # The first window queues without flushing and piles onto shard 0,
        # so the second starts on a backlog one round cannot clear.  With a
        # clock_step the clock also moves on every admitted row, so a shard's
        # delay or deadline can come due while the window admits into the
        # other shard.
        nodes = np.random.default_rng(1).choice(small_graph.num_nodes, size=40, replace=True)
        # Concurrent shards of one round finish in any order.
        order = sorted if executor == "concurrent" else list
        outcomes = []
        for batched in (True, False):
            clock = ManualClock()
            config = ServingConfig(
                num_shards=2,
                max_batch_size=4,
                max_delay=max_delay,
                cache_capacity=1024,
                executor=executor,
                max_queue_depth=None if overload_policy is None else 3,
                overload_policy=overload_policy or "reject",
                default_timeout=0.004,
                seed=0,
            )
            with InferenceServer(_model(small_graph), small_graph, config, clock=clock) as server:
                if clock_step:
                    # MicroBatcher.stamp reads the clock once per admitted
                    # row: every row moves the clock before it is stamped.
                    stamp = server.batcher.stamp

                    def tick_and_stamp(now, *args, stamp=stamp):
                        def tick_then_now():
                            clock.advance(clock_step)
                            ticks.append(clock_step)
                            return now()

                        return stamp(tick_then_now, *args)

                    server.batcher.stamp = tick_and_stamp
                ticks = []
                backlog = np.concatenate([server.shards[0].core_nodes[:10], nodes[:5]])
                windows = [
                    ("premium", backlog), ("backfill", nodes[5:25]), ("premium", nodes[25:])
                ]
                handles = []
                for index, (request_class, window) in enumerate(windows):
                    server.scheduler.flush_on_submit = index > 0
                    if batched:
                        handles += server.submit_many(window, request_class=request_class)
                    else:
                        handles += [
                            server.submit(node, request_class=request_class) for node in window
                        ]
                    clock.advance((0.001, 0.005)[index % 2])
                server.drain()
                # The clock moved once per row, inside the windows.
                assert len(ticks) == (len(nodes) + 10 if clock_step else 0)
                stats = server.stats()
                outcomes.append((
                    [
                        (h.request_id, h.status, h.worker_id, h.batch_size, h.prediction)
                        for h in handles
                    ],
                    (stats.size_flushes, stats.delay_flushes, stats.forced_flushes),
                    server.scheduler.rounds,
                    order(stats.batch_sizes.tolist()),
                    order(stats.latencies.tolist()),
                ))
        assert outcomes[0] == outcomes[1]

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

    def test_invalid_window_admits_nothing(self, small_graph):
        server = _server(_model(small_graph), small_graph)
        with pytest.raises(ValueError, match=f"node {small_graph.num_nodes} is outside"):
            server.submit_many([0, 1, 2, small_graph.num_nodes])
        with pytest.raises(ValueError, match="timeout"):
            server.submit_many([0, 1], timeout=-1.0)
        # NaN fails every comparison: a `timeout <= 0` check lets it through
        # as a deadline that never expires.
        with pytest.raises(ValueError, match="timeout"):
            server.submit_many([0, 1], timeout=float("nan"))
        with pytest.raises(ValueError, match="request_class"):
            server.submit_many([0, 1], request_class="gold")
        assert server.batcher.pending == 0
        server.drain()
        assert server.stats().submitted_requests == 0
        assert server.submit(0).request_id == 0

    @pytest.mark.parametrize("timeout", [0.0, -1.0, float("-inf"), float("nan")])
    def test_nonpositive_or_nan_timeout_admits_nothing(self, small_graph, timeout):
        server = _server(_model(small_graph), small_graph)
        with pytest.raises(ValueError, match="timeout must be positive"):
            server.submit(0, timeout=timeout)
        assert server.batcher.pending == 0
        assert server.submit(0).request_id == 0

    def test_infinite_timeout_never_expires(self, small_graph):
        model = _model(small_graph)
        reference = model.full_forward(small_graph).data.argmax(axis=-1)
        server = _server(model, small_graph)
        server.scheduler.flush_on_submit = False
        requests = server.submit_many([0, 1, 2], timeout=float("inf"))
        assert all(request.deadline == float("inf") for request in requests)
        server.clock.advance(1e6)
        server.poll()
        assert [request.result() for request in requests] == [int(n) for n in reference[:3]]
        assert server.stats().expired_requests == 0

    def test_invalid_config_values(self):
        with pytest.raises(ValueError):
            ServingConfig(num_shards=0)
        with pytest.raises(ValueError):
            ServingConfig(health_failure_threshold=0)

    def test_deleted_knobs_are_not_fields(self):
        # Serving is exact with one embedding store and a model-depth halo; the
        # heartbeat interval is a procplane constant; there is no hedged
        # dispatch and no work stealing; the flush pool has one thread per
        # replica and the front-door pump re-polls at its own default.
        # Retries run at once, capped only by max_retries; a replica dies on
        # consecutive failures alone and is always rebuilt on the next tick;
        # dispatch is round-robin; the request classes are the
        # DEFAULT_REQUEST_CLASSES constant and a process call times out
        # after procplane.CALL_TIMEOUT.  None is configurable.
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
            ("request_classes", {"bulk": 1.0}),
            ("default_class", "premium"),
            ("process_call_timeout", 1.0),
        ):
            with pytest.raises(TypeError):
                ServingConfig(**{field: value})
        assert len(dataclasses.fields(ServingConfig)) == 19

    def test_predictions_returned_in_submission_order(self, small_graph):
        model = _model(small_graph)
        reference = model.full_forward(small_graph).data.argmax(axis=-1)
        server = _server(model, small_graph, num_shards=3, max_batch_size=5)
        nodes = np.array([17, 3, 99, 3, 42, 0])
        assert np.array_equal(server.predict(nodes), reference[nodes])

    @pytest.mark.parametrize("halo_tier", [True, False])
    def test_shutdown_frees_every_worker_store_and_memo(self, small_graph, halo_tier):
        # Teardown drops each worker's store and first-layer memo at once,
        # not when the cyclic garbage collector next runs: a private store's
        # slabs (halo tier off) are freed with it.
        server = _server(_model(small_graph), small_graph, num_replicas=2, halo_tier=halo_tier)
        server.predict(np.arange(64))
        workers = list(server.workers)
        assert all(worker._memo is not None for worker in workers)
        private = [weakref.ref(worker.store) for worker in workers if not halo_tier]
        assert all(len(ref()) for ref in private)
        server.shutdown()
        for worker in workers:
            assert worker.store is None and worker._memo is None
        assert all(ref() is None for ref in private)
        assert server.stats().cache.misses > 0  # the counts stay readable

    def test_render_mentions_the_key_metrics(self, small_graph):
        server = _server(_model(small_graph), small_graph)
        server.predict(np.arange(10))
        text = server.stats().render()
        assert "latency p50" in text and "embedding cache" in text and "worker" in text
        assert "shards" in server.describe()


class TestServingMode:
    def test_warm_window_on_an_eval_model_walks_no_module(self, small_graph, monkeypatch):
        # Serving pins eval mode per dispatch attempt; a model already in
        # eval mode must not be walked (train() recurses into every child).
        model = _model(small_graph).eval()
        server = _server(model, small_graph)
        nodes = np.arange(small_graph.num_nodes)
        server.predict(nodes)  # cold pass: every row now a cache hit
        calls = []
        train = Module.train

        def counting_train(self, mode=True):
            calls.append(mode)
            return train(self, mode)

        monkeypatch.setattr(Module, "train", counting_train)
        server.predict(nodes)
        assert server.stats().size_flushes + server.stats().forced_flushes > 1
        assert calls == []
        assert not any(module.training for _, module in model.named_modules())

    def test_training_model_is_served_in_eval_then_restored(self, small_graph):
        model = _model(small_graph).train()
        reference = model.full_forward(small_graph).data.argmax(axis=-1)
        model.train()
        server = _server(model, small_graph, num_replicas=2)
        modes = []
        for worker in server.workers:
            predict = worker.predict

            def recording_predict(nodes, predict=predict):
                modes.append([module.training for _, module in model.named_modules()])
                return predict(nodes)

            worker.predict = recording_predict
        nodes = np.arange(small_graph.num_nodes)
        assert np.array_equal(server.predict(nodes), reference[nodes])
        assert modes and not any(any(mode) for mode in modes)
        assert all(module.training for _, module in model.named_modules())


class TestLedgerStorage:
    # Windows below BLOCK_ROWS share a block; one of BLOCK_ROWS fills a
    # block by itself.
    @pytest.mark.parametrize("window_rows", [100, BLOCK_ROWS])
    @pytest.mark.parametrize("telemetry", ["metrics", "trace"])
    def test_settled_windows_keep_no_per_request_storage(
        self, small_graph, window_rows, telemetry
    ):
        # A ledger block lives while its rows are queued, its handles are
        # held, or it is its class's open block: served and dropped, it is
        # freed by reference counting alone (no cycle for the collector to
        # find).  What stays is the engine's 8-byte latency entry per
        # request.  The tracer copies rows into fixed rings and holds no
        # block: both rings are full before the measured windows.
        server = _server(
            _model(small_graph),
            small_graph,
            max_batch_size=32,
            telemetry=telemetry,
            trace_capacity=16,
        )
        window = np.resize(np.arange(small_graph.num_nodes), window_rows)
        server.predict(np.arange(small_graph.num_nodes))  # cold pass: then all warm

        def serve_windows(count):
            blocks = []
            for _ in range(count):
                handles = server.submit_many(window)
                server.drain()
                assert all(handle.completed for handle in handles)
                blocks.append(weakref.ref(handles[0]._block))
                del handles
            return blocks

        serve_windows(10)  # histogram and array growth settle first
        if server.tracer is not None:
            assert server.tracer.dropped_traces and server.tracer.dropped_attempts
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            gc.disable()
            try:
                blocks = serve_windows(200)
                alive = {id(block()) for block in blocks if block() is not None}
                assert alive <= {id(block) for block in server._open_blocks.values()}
            finally:
                gc.enable()
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        requests = 200 * window_rows
        batches = server.stats().batch_sizes.size
        # 8 B of latency per request (plus the array's over-allocation), a
        # list slot per batch size and the test's own weakrefs; a retained
        # block would add ~100 B per request.
        assert grown <= 10 * requests + 9 * batches + 32 * 1024
