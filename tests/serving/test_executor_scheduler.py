"""Tests for the concurrent serving executor, scheduler and admission control.

The contract under test:

* ``SerialExecutor`` and ``ConcurrentExecutor`` produce identical predictions
  (bitwise) — concurrency changes wall-clock, never answers;
* the ``Scheduler`` owns the flush loop (rounds are barriers, and
  ``flush_on_submit=False`` lets queues build for open-loop drivers);
* bounded queues enforce their overload policy (reject / shed_oldest) and
  deadlines expire queued requests — with every request terminating in
  exactly one state.
"""

from __future__ import annotations

import inspect
import sys
import threading

import numpy as np
import pytest

from repro.compression import CompressionConfig
from repro.models import create_model
from repro.serving import (
    ConcurrentExecutor,
    FlushExecutor,
    InferenceServer,
    ManualClock,
    MicroBatcher,
    Scheduler,
    SerialExecutor,
    ServingConfig,
    make_executor,
)
from repro.serving.batcher import InferenceRequest


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


class TestExecutors:
    def test_factory_builds_both_kinds(self):
        assert isinstance(make_executor("serial", 4), SerialExecutor)
        assert isinstance(make_executor("concurrent", 4), ConcurrentExecutor)
        with pytest.raises(ValueError):
            make_executor("fibers", 4)
        with pytest.raises(ValueError):
            make_executor("concurrent", 0)

    def test_serial_map_preserves_order(self):
        executor = SerialExecutor()
        assert executor.map(lambda x: x * 2, [3, 1, 2]) == [6, 2, 4]
        assert executor.peak_concurrency == 1
        executor.reset_peak()
        assert executor.peak_concurrency == 0

    def test_concurrent_map_preserves_order_and_runs_in_parallel(self):
        executor = ConcurrentExecutor(max_workers=4)
        barrier = threading.Barrier(4, timeout=5.0)

        def task(x):
            barrier.wait()  # deadlocks unless all four genuinely overlap
            return x * 10

        try:
            assert executor.map(task, [1, 2, 3, 4]) == [10, 20, 30, 40]
            assert executor.peak_concurrency == 4
        finally:
            executor.shutdown()

    def test_concurrent_map_propagates_exceptions_after_the_round(self):
        executor = ConcurrentExecutor(max_workers=2)
        finished = []

        def task(x):
            if x == 0:
                raise RuntimeError("boom")
            finished.append(x)
            return x

        try:
            with pytest.raises(RuntimeError, match="boom"):
                executor.map(task, [0, 1, 2])
            # The barrier held: the healthy tasks still ran to completion.
            assert sorted(finished) == [1, 2]
        finally:
            executor.shutdown()

    def test_concurrent_shutdown_is_idempotent(self):
        executor = ConcurrentExecutor(max_workers=2)
        executor.map(lambda x: x, [1])
        executor.shutdown()
        executor.shutdown()


class TestScheduler:
    def _scheduler(self, flushed, num_shards=2, max_batch_size=2, **kwargs):
        batcher = MicroBatcher(num_shards, max_batch_size, max_delay=1.0)
        clock = ManualClock()

        def flush(shard_id, forced):
            batch = batcher.pop_batch(shard_id, forced=forced)
            flushed.extend(request.request_id for request in batch)
            return 1 if batch else 0

        scheduler = Scheduler(batcher, clock, flush, SerialExecutor(), **kwargs)
        return scheduler, batcher, clock

    def _request(self, request_id, shard_id, at):
        return InferenceRequest(
            request_id=request_id, node=request_id, shard_id=shard_id, enqueue_time=at
        )

    def test_poll_flushes_only_due_shards(self):
        flushed = []
        scheduler, batcher, clock = self._scheduler(flushed)
        batcher.enqueue(self._request(0, 0, at=0.0))   # below size, delay not hit
        batcher.enqueue(self._request(1, 1, at=0.0))
        batcher.enqueue(self._request(2, 1, at=0.0))   # shard 1 hits max_batch_size
        assert scheduler.poll() == 1
        assert flushed == [1, 2]
        clock.advance(1.0)                              # now shard 0's delay is due
        assert scheduler.poll() == 1
        assert flushed == [1, 2, 0]

    def test_drain_empties_everything_in_rounds(self):
        flushed = []
        scheduler, batcher, _ = self._scheduler(flushed, max_batch_size=2)
        for request_id in range(5):
            batcher.enqueue(self._request(request_id, request_id % 2, at=0.0))
        assert scheduler.drain() == 3
        assert batcher.pending == 0
        assert sorted(flushed) == [0, 1, 2, 3, 4]
        assert scheduler.rounds == 2  # 2+2 then the final 1

    def test_one_round_path_and_one_executor_method(self):
        # A round is executor.map over the due shards, then supervise():
        # no executor offers a second dispatch method, and the scheduler
        # takes no stealing hooks.
        for executor in (FlushExecutor, SerialExecutor, ConcurrentExecutor):
            assert not hasattr(executor, "map_stealing")
        params = set(inspect.signature(Scheduler.__init__).parameters)
        assert not {"work_stealing", "steal_source", "expire_overdue"} & params

    def test_flush_on_submit_off_lets_queues_build(self, small_graph):
        model = _model(small_graph)
        server = _server(model, small_graph, num_shards=1, max_batch_size=4)
        server.scheduler.flush_on_submit = False
        requests = server.submit_many(range(8))
        assert server.batcher.pending == 8          # nothing flushed eagerly
        assert not any(request.done for request in requests)
        server.poll()                                # size-due now, one batch per round
        assert server.batcher.pending == 4
        server.drain()
        assert all(request.completed for request in requests)


class TestConcurrentServing:
    @pytest.mark.parametrize("executor", ["serial", "concurrent", "process"])
    @pytest.mark.parametrize("halo_tier", [True, False])
    @pytest.mark.parametrize("num_replicas", [1, 2])
    def test_predictions_bitwise_equal_to_full_graph(
        self, small_graph, monkeypatch, executor, halo_tier, num_replicas
    ):
        # Three model refreshes, each followed by the same request stream:
        # every round serves full_forward's answers under the new weights,
        # while layer 1's weight-free aggregation (GCN's Â·X) is computed
        # once per row per worker incarnation and reused across refreshes.
        model = _model(small_graph, block_size=4)
        server = _server(
            model,
            small_graph,
            num_shards=3,
            executor=executor,
            max_batch_size=4,
            halo_tier=halo_tier,
            num_replicas=num_replicas,
        )
        nodes = np.random.default_rng(2).choice(small_graph.num_nodes, size=80, replace=True)
        in_process = executor != "process"
        aggregated_rows = []  # rows of every layer-1 restriction, per round
        if in_process:
            layer = model.layers[0]
            aggregate = layer.aggregate_restricted

            def counting(h, restriction, timer=None):
                aggregated_rows[-1] += restriction.num_rows
                return aggregate(h, restriction, timer)

            monkeypatch.setattr(layer, "aggregate_restricted", counting)
        incarnations = {}
        rng = np.random.default_rng(5)
        previous = None
        try:
            for round_index in range(3):
                if round_index:
                    # Layer 1's weight: its combination must be redone, its
                    # aggregation must not.
                    parameter = model.parameters()[0]
                    parameter.data += rng.normal(size=parameter.data.shape)
                    parameter.bump_version()
                    # Children hold pickled weights: a refresh respawns them
                    # all.  With two in-process replicas one slot is rebuilt,
                    # so a replacement with an empty memo joins the round.
                    if not in_process:
                        for worker in list(server.workers):
                            server.restart_replica(*divmod(worker.worker_id, num_replicas))
                    elif num_replicas == 2:
                        server.restart_replica(round_index % 3, 0)
                reference = model.full_forward(small_graph).data.argmax(axis=-1)
                assert previous is None or not np.array_equal(reference[nodes], previous)
                previous = reference[nodes]
                aggregated_rows.append(0)
                assert np.array_equal(server.predict(nodes), reference[nodes])
                incarnations.update((id(worker), worker) for worker in server.workers)
        finally:
            server.shutdown()
        if in_process:
            assert aggregated_rows[0] > 0
            if num_replicas == 1:
                assert sum(aggregated_rows) == aggregated_rows[0]
            # Each incarnation aggregates each row at most once.
            memoised = sum(int(worker._memo_known.sum()) for worker in incarnations.values())
            assert sum(aggregated_rows) == memoised

    def test_concurrent_and_serial_serve_identical_answers(self, small_graph):
        model = _model(small_graph)
        nodes = np.random.default_rng(4).choice(small_graph.num_nodes, size=64, replace=True)
        results = {}
        for executor in ("serial", "concurrent"):
            with _server(model, small_graph, num_shards=4, executor=executor) as server:
                results[executor] = server.predict(nodes)
        assert np.array_equal(results["serial"], results["concurrent"])

    def test_stats_report_executor_and_concurrency(self, small_graph):
        model = _model(small_graph)
        with _server(model, small_graph, executor="concurrent", max_batch_size=4) as server:
            server.predict(np.arange(small_graph.num_nodes))
            stats = server.stats()
        assert stats.executor == "concurrent"
        assert stats.peak_concurrency >= 1
        assert all(load.peak_concurrency >= 1 for load in stats.workers if load.batches)
        assert "executor concurrent" in stats.render()

    def test_crashing_worker_marks_requests_failed_not_pending(self, small_graph):
        # A crashing replica no longer takes the drain down with it: the
        # flush round is crash-safe, the batch retries (same replica — it is
        # the only one) until the budget exhausts, then fails terminally.
        model = _model(small_graph)
        server = _server(model, small_graph, num_shards=1, max_batch_size=4)
        server.scheduler.flush_on_submit = False
        requests = server.submit_many(range(4))

        def boom(nodes):
            raise RuntimeError("worker crashed")

        server.workers[0].predict = boom
        server.drain()  # must NOT raise: the failure is isolated to the batch
        assert [request.status for request in requests] == ["failed"] * 4
        assert all(request.done for request in requests)
        with pytest.raises(RuntimeError, match="failed"):
            requests[0].result()
        stats = server.stats()
        assert stats.failed_requests == 4
        assert stats.submitted_requests == 4
        # max_retries=2 default: 1 initial + 2 retries, all on the lone replica
        assert stats.worker_failures == 3
        assert stats.retried_requests == 8  # 4 requests x 2 retry rounds

    def test_shutdown_drains_then_rejects_new_work(self, small_graph):
        model = _model(small_graph)
        server = _server(model, small_graph, executor="concurrent")
        server.scheduler.flush_on_submit = False
        requests = server.submit_many(range(6))
        server.shutdown()
        assert all(request.completed for request in requests)
        with pytest.raises(RuntimeError, match="shut down"):
            server.submit(0)

    def test_shutdown_during_in_flight_flush_is_deterministic(self, small_graph):
        # shutdown() called while a concurrent flush round is mid-predict must
        # wait for the in-flight round to settle (condition variable, not a
        # sleep loop), finish every request, and only then close the executor.
        model = _model(small_graph)
        server = _server(model, small_graph, executor="concurrent", num_shards=2)
        server.scheduler.flush_on_submit = False
        worker = server.workers[0]
        original = worker.predict
        entered, release = threading.Event(), threading.Event()

        def slow_predict(nodes):
            entered.set()
            assert release.wait(timeout=5.0)
            return original(nodes)

        worker.predict = slow_predict
        requests = server.submit_many(range(8))
        drainer = threading.Thread(target=server.drain)
        drainer.start()
        assert entered.wait(timeout=5.0)      # round in flight, worker 0 parked
        closer = threading.Thread(target=server.shutdown)
        closer.start()
        release.set()
        drainer.join(timeout=5.0)
        closer.join(timeout=5.0)
        assert not drainer.is_alive() and not closer.is_alive()
        assert all(request.completed for request in requests)
        with pytest.raises(RuntimeError, match="shut down"):
            server.submit(0)

    def test_shutdown_mid_window_leaves_every_request_terminal(self, small_graph):
        # Another thread shuts the server down while a window is admitting
        # (between two of its inline rounds, when it holds no lock): what
        # was admitted before is drained, the rest of the window is
        # rejected, and nothing is left pending.
        model = _model(small_graph)
        server = _server(model, small_graph, executor="concurrent")
        poll, rounds = server.scheduler.poll, []

        def poll_then_shutdown():
            flushed = poll()
            rounds.append(flushed)
            if len(rounds) == 3:
                closer = threading.Thread(target=server.shutdown)
                closer.start()
                closer.join(timeout=5.0)
                assert not closer.is_alive()
            return flushed

        server.scheduler.poll = poll_then_shutdown
        nodes = np.arange(200) % small_graph.num_nodes
        handles = server.submit_many(nodes)
        statuses = [handle.status for handle in handles]
        served = statuses.count("completed")
        assert 0 < served < len(nodes)
        assert statuses == ["completed"] * served + ["rejected"] * (len(nodes) - served)
        assert server.batcher.pending == 0
        assert server.stats().rejected_requests == len(nodes) - served


class TestAdmissionControl:
    def test_reject_policy_turns_new_requests_away(self, small_graph):
        model = _model(small_graph)
        server = _server(
            model, small_graph, num_shards=1, max_queue_depth=3, overload_policy="reject",
            max_batch_size=100,
        )
        server.scheduler.flush_on_submit = False
        requests = server.submit_many(range(5))
        statuses = [request.status for request in requests]
        assert statuses == ["pending"] * 3 + ["rejected"] * 2
        with pytest.raises(RuntimeError, match="rejected"):
            requests[-1].result()
        server.drain()
        stats = server.stats()
        assert stats.rejected_requests == 2
        assert stats.completed_requests == 3
        assert stats.submitted_requests == 5

    def test_shed_oldest_policy_keeps_the_newest(self, small_graph):
        model = _model(small_graph)
        server = _server(
            model, small_graph, num_shards=1, max_queue_depth=2, overload_policy="shed_oldest",
            max_batch_size=100,
        )
        server.scheduler.flush_on_submit = False
        requests = server.submit_many(range(4))
        assert [request.status for request in requests] == ["shed", "shed", "pending", "pending"]
        server.drain()
        assert [request.status for request in requests] == [
            "shed", "shed", "completed", "completed",
        ]
        assert server.stats().shed_requests == 2

    @pytest.mark.parametrize("policy", ["reject", "shed_oldest"])
    def test_full_queue_never_flushes_on_the_submitting_thread(self, small_graph, policy):
        # Admission control turns requests away; it never serves a batch to
        # make room.  Only the scheduler flushes.
        model = _model(small_graph)
        server = _server(
            model, small_graph, num_shards=1, max_queue_depth=2, overload_policy=policy,
            max_batch_size=2,
        )
        server.scheduler.flush_on_submit = False
        requests = server.submit_many(range(6))
        stats = server.stats()
        assert len(stats.batch_sizes) == 0
        assert stats.size_flushes == stats.delay_flushes == stats.forced_flushes == 0
        assert [request.status for request in requests].count("pending") == 2
        server.drain()
        assert [request.completed for request in requests].count(True) == 2
        assert server.stats().submitted_requests == 6

    @pytest.mark.parametrize("policy, turned_away", [("reject", "rejected"), ("shed_oldest", "shed")])
    def test_concurrent_submitters_cannot_overfill_a_queue(self, small_graph, policy, turned_away):
        # The second submitter runs while the first sits between its
        # full-check and its enqueue: admission must hold the lock across
        # both, so the queue never exceeds its depth and exactly one request
        # is turned away.
        model = _model(small_graph)
        server = _server(
            model, small_graph, num_shards=1, max_queue_depth=2, overload_policy=policy,
            max_batch_size=100, flush_on_submit=False,
        )
        first = server.submit(0)
        original = server.batcher.is_full
        racers, others = [], []

        def racing_is_full(shard_id):
            full = original(shard_id)
            if not racers:
                racer = threading.Thread(target=lambda: others.append(server.submit(1)))
                racers.append(racer)
                racer.start()
                racer.join(timeout=0.2)
            return full

        server.batcher.is_full = racing_is_full
        mine = server.submit(2)
        racers[0].join(timeout=5.0)
        assert not racers[0].is_alive()
        assert server.batcher.queue_depth(0) <= 2
        statuses = [handle.status for handle in (first, mine, others[0])]
        assert statuses.count(turned_away) == 1
        server.drain()
        stats = server.stats()
        assert stats.rejected_requests + stats.shed_requests == 1
        assert stats.completed_requests == 2

    @pytest.mark.parametrize("flush_on_submit", [False, True])
    def test_concurrent_submitters_get_unique_request_ids(self, small_graph, flush_on_submit):
        # With flush_on_submit the submitters' windows also poll, and check
        # shard due-ness, while other submitters' rounds pop the same queues.
        model = _model(small_graph)
        server = _server(
            model, small_graph, num_shards=2, max_batch_size=4, flush_on_submit=flush_on_submit
        )
        num_threads, per_thread, window = 4, 50, 5
        start = threading.Barrier(num_threads, timeout=5.0)
        handles = [[] for _ in range(num_threads)]

        def submitter(index):
            start.wait()
            for k in range(0, per_thread, window):
                first = index * per_thread + k
                nodes = [node % small_graph.num_nodes for node in range(first, first + window)]
                handles[index].extend(server.submit_many(nodes))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=submitter, args=(i,)) for i in range(num_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        flat = [handle for group in handles for handle in group]
        assert len({handle.request_id for handle in flat}) == num_threads * per_thread
        server.drain()
        assert all(handle.completed for handle in flat)
        assert server.stats().completed_requests == num_threads * per_thread
        assert server.batcher.pending == 0

    def test_predict_raises_when_admission_drops_requests(self, small_graph):
        model = _model(small_graph)
        server = _server(
            model, small_graph, num_shards=1, max_queue_depth=1, overload_policy="reject",
            max_batch_size=100,
        )
        server.scheduler.flush_on_submit = False
        with pytest.raises(RuntimeError, match="did not complete"):
            server.predict(np.arange(4))

    def test_invalid_admission_configs_rejected(self):
        with pytest.raises(ValueError):
            ServingConfig(max_queue_depth=0)
        with pytest.raises(ValueError):
            ServingConfig(overload_policy="drop-table")
        with pytest.raises(ValueError):
            ServingConfig(executor="fibers")
        with pytest.raises(TypeError, match="executor_workers"):
            ServingConfig(executor_workers=0)
        with pytest.raises(ValueError):
            ServingConfig(default_timeout=0.0)


class TestDeadlines:
    def test_expired_requests_are_not_executed(self, small_graph):
        model = _model(small_graph)
        clock = ManualClock()
        server = InferenceServer(
            model,
            small_graph,
            ServingConfig(num_shards=1, max_batch_size=100, max_delay=10.0, seed=0),
            clock=clock,
        )
        server.scheduler.flush_on_submit = False
        fresh = server.submit(0)
        doomed = server.submit(1, timeout=0.5)
        clock.advance(1.0)
        server.drain()
        assert fresh.completed
        assert doomed.status == "expired"
        assert doomed.prediction is None
        assert server.stats().expired_requests == 1

    def test_deadline_makes_a_queue_due(self, small_graph):
        model = _model(small_graph)
        clock = ManualClock()
        server = InferenceServer(
            model,
            small_graph,
            ServingConfig(
                num_shards=1, max_batch_size=100, max_delay=10.0, default_timeout=0.5, seed=0
            ),
            clock=clock,
        )
        server.scheduler.flush_on_submit = False
        request = server.submit(0)
        assert server.poll() == 0          # not due: delay 10s, deadline 0.5s away
        clock.advance(0.6)
        assert server.poll() == 1          # deadline passed -> queue became due
        assert request.status == "expired"

    def test_submit_rejects_nonpositive_timeout(self, small_graph):
        server = _server(_model(small_graph), small_graph)
        with pytest.raises(ValueError):
            server.submit(0, timeout=-1.0)
