"""Front-door tests: RequestHandle futures, weighted request classes,
flush rounds and the background ingress pump.

The handle/class layers must not disturb the serving core: all
scenarios here assert predictions stay bitwise-equal to offline full-graph
inference, and the exactly-one-terminal-state ledger keeps holding.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading

import numpy as np
import pytest

from repro.compression import CompressionConfig
from repro.graph.datasets import synthetic_graph
from repro.models import create_model
from repro.serving import (
    DEFAULT_REQUEST_CLASSES,
    FaultPlan,
    FaultSpec,
    InferenceServer,
    ManualClock,
    MicroBatcher,
    RequestError,
    RequestExpired,
    RequestFailed,
    RequestHandle,
    RequestPending,
    RequestRejected,
    RequestShed,
    ServingConfig,
    SystemClock,
)
from repro.serving.batcher import InferenceRequest

GRAPH = synthetic_graph(
    num_nodes=40, num_edges=150, num_features=8, num_classes=3, seed=7, name="frontdoor-graph"
)
MODEL = create_model(
    "GCN",
    in_features=GRAPH.num_features,
    hidden_features=8,
    num_classes=GRAPH.num_classes,
    compression=CompressionConfig(block_size=4),
    seed=0,
)
REFERENCE = MODEL.full_forward(GRAPH).data.argmax(axis=-1)


def _server(clock=None, **overrides):
    defaults = dict(num_shards=2, max_batch_size=4, max_delay=0.5, cache_capacity=256, seed=0)
    defaults.update(overrides)
    return InferenceServer(
        MODEL, GRAPH, ServingConfig(**defaults), clock=clock or ManualClock()
    )


def _shard_nodes(server, shard_id, count):
    nodes = [n for n in range(GRAPH.num_nodes) if int(server._owner[n]) == shard_id]
    assert len(nodes) >= count, "graph too small for this scenario"
    return nodes[:count]


def _request(request_id=0, *, weight=1.0, request_class="standard", enqueue_time=0.0,
             deadline=None, shard_id=0, node=0):
    return InferenceRequest(
        request_id=request_id,
        node=node,
        shard_id=shard_id,
        enqueue_time=enqueue_time,
        deadline=deadline,
        request_class=request_class,
        weight=weight,
    )


class TestRequestHandle:
    def test_submit_returns_handle_with_future_protocol(self):
        server = _server()
        handle = server.submit(3)
        assert isinstance(handle, RequestHandle)
        server.drain()
        assert handle.done
        assert handle.completed
        assert handle.status == "completed"
        assert handle.result() == int(REFERENCE[3])
        assert handle.exception() is None
        assert handle.latency >= 0.0
        assert handle.completion_time is not None
        assert handle.request_class == "standard"
        server.shutdown()

    def test_handle_exposes_underlying_record(self):
        server = _server()
        handle = server.submit(0)
        assert isinstance(handle.request, InferenceRequest)
        assert handle.request_id == handle.request.request_id
        assert handle.node == 0
        assert handle.shard_id == int(server._owner[0])
        server.shutdown()

    def test_result_on_pending_raises_instead_of_deadlocking(self):
        server = _server(max_batch_size=8)
        server.scheduler.flush_on_submit = False
        handle = server.submit(1)
        assert not handle.done
        with pytest.raises(RequestPending, match="still pending"):
            handle.result()
        # RequestPending is a RequestError is a RuntimeError.
        assert issubclass(RequestPending, RequestError)
        server.shutdown()

    def test_result_with_timeout_raises_timeout_when_nothing_serves(self):
        server = _server(max_batch_size=8)
        server.scheduler.flush_on_submit = False
        handle = server.submit(1)
        with pytest.raises(TimeoutError, match="still pending"):
            handle.result(timeout=0.01)
        assert handle.wait(timeout=0.01) is False
        server.shutdown()

    def test_rejected_maps_to_typed_exception(self):
        server = _server(
            num_shards=1, max_batch_size=8, max_queue_depth=1, overload_policy="reject"
        )
        server.scheduler.flush_on_submit = False
        first = server.submit(0)
        second = server.submit(1)
        assert second.status == "rejected"
        with pytest.raises(RequestRejected):
            second.result()
        # Old-shape error handling still matches.
        with pytest.raises(RuntimeError, match="rejected"):
            second.result()
        error = second.exception()
        assert isinstance(error, RequestRejected)
        assert error.request_id == second.request_id
        assert error.status == "rejected"
        server.shutdown()
        assert first.completed

    def test_shed_and_expired_map_to_typed_exceptions(self):
        clock = ManualClock()
        server = _server(
            clock=clock,
            num_shards=1,
            max_batch_size=8,
            max_queue_depth=1,
            overload_policy="shed_oldest",
            default_timeout=0.2,
        )
        server.scheduler.flush_on_submit = False
        victim = server.submit(0)
        server.submit(1)
        with pytest.raises(RequestShed):
            victim.result()

        expired = server.submit(2)  # replaces node 1 via shed; irrelevant here
        clock.advance(1.0)
        server.poll()
        server.drain()
        assert expired.status == "expired"
        with pytest.raises(RequestExpired):
            expired.result()
        server.shutdown()

    def test_failed_maps_to_typed_exception(self):
        server = _server(num_shards=1, max_retries=0)
        server.scheduler.flush_on_submit = False
        handle = server.submit(0)

        def boom(nodes):
            raise RuntimeError("worker crashed")

        server.workers[0].predict = boom
        server.drain()
        assert handle.status == "failed"
        with pytest.raises(RequestFailed):
            handle.result()
        with pytest.raises(RuntimeError, match="failed"):
            handle.result()
        server.shutdown()

    def test_done_is_a_plain_bool_property(self):
        server = _server(max_batch_size=8)
        server.scheduler.flush_on_submit = False
        handle = server.submit(5)
        # Identity checks: a truthy non-bool (or a bound method, which is
        # always truthy) would let `all(h.done for h in handles)` pass vacuously.
        assert handle.done is False
        assert handle.done is handle.request.done
        server.drain()
        assert handle.done is True
        assert handle.done is handle.request.done
        server.shutdown()

    def test_calling_done_fails_loudly(self):
        # A leftover `handle.done()` from the old callable shape must raise,
        # not silently read a flag.
        server = _server()
        handle = server.submit(2)
        server.drain()
        with pytest.raises(TypeError):
            handle.done()
        server.shutdown()


class TestRequestClasses:
    def test_unknown_class_is_rejected_at_submit(self):
        server = _server()
        with pytest.raises(ValueError, match="unknown request_class"):
            server.submit(0, request_class="platinum")
        server.shutdown()

    def test_default_classes_expose_weights(self):
        weights = dict(DEFAULT_REQUEST_CLASSES)
        assert weights["premium"] > weights["standard"] > weights["backfill"]

    def test_pop_batch_admits_heaviest_class_first(self):
        batcher = MicroBatcher(num_shards=1, max_batch_size=2, max_delay=0.0)
        for request_id, (request_class, weight) in enumerate(
            [("backfill", 1.0), ("backfill", 1.0), ("premium", 4.0), ("standard", 2.0)]
        ):
            batcher.enqueue(
                _request(request_id, weight=weight, request_class=request_class,
                         enqueue_time=float(request_id) * 0.01)
            )
        batch = batcher.pop_batch(0)
        assert [r.request_class for r in batch] == ["premium", "standard"]
        # Remaining backfill pops next, oldest first.
        rest = batcher.pop_batch(0)
        assert [r.request_id for r in rest] == [0, 1]

    def test_pop_batch_breaks_weight_ties_by_earliest_deadline(self):
        batcher = MicroBatcher(num_shards=1, max_batch_size=1, max_delay=0.0)
        batcher.enqueue(_request(0, deadline=9.0))
        batcher.enqueue(_request(1, deadline=2.0))
        batch = batcher.pop_batch(0)
        assert [r.request_id for r in batch] == [1]

    def test_shed_victim_picks_lightest_class_then_oldest(self):
        batcher = MicroBatcher(num_shards=1, max_batch_size=8, max_delay=0.0)
        batcher.enqueue(_request(0, weight=4.0, request_class="premium", enqueue_time=0.0))
        batcher.enqueue(_request(1, weight=1.0, request_class="backfill", enqueue_time=0.3))
        batcher.enqueue(_request(2, weight=1.0, request_class="backfill", enqueue_time=0.1))
        victim = batcher.shed_victim(0)
        # Not the older premium: the lightest class sheds first, oldest within it.
        assert victim.request_id == 2
        assert batcher.queue_depth(0) == 2

    def test_shed_victim_degenerates_to_oldest_for_single_class(self):
        batcher = MicroBatcher(num_shards=1, max_batch_size=8, max_delay=0.0)
        batcher.enqueue(_request(0, enqueue_time=0.2))
        batcher.enqueue(_request(1, enqueue_time=0.1))
        assert batcher.shed_victim(0).request_id == 1

    def test_backfill_sheds_before_premium_under_overload(self):
        server = _server(
            num_shards=1, max_batch_size=8, max_queue_depth=2, overload_policy="shed_oldest"
        )
        server.scheduler.flush_on_submit = False
        backfill = server.submit(0, request_class="backfill")
        premium = server.submit(1, request_class="premium")
        overflow = server.submit(2, request_class="premium")
        assert backfill.status == "shed"
        assert premium.status == "pending"
        assert overflow.status == "pending"
        server.drain()
        assert premium.completed and overflow.completed
        stats = server.stats()
        assert stats.class_requests["backfill"]["shed"] == 1
        assert stats.class_requests["premium"]["completed"] == 2
        assert stats.class_requests["premium"]["shed"] == 0
        server.shutdown()

    def test_per_class_ledger_balances(self):
        server = _server(num_shards=2, max_batch_size=2)
        classes = ["premium", "standard", "backfill"]
        submitted = {name: 0 for name in classes}
        for node in range(12):
            name = classes[node % 3]
            server.submit(node, request_class=name)
            submitted[name] += 1
        server.drain()
        stats = server.stats()
        for name in classes:
            assert sum(stats.class_requests[name].values()) == submitted[name]
            assert stats.class_requests[name]["completed"] == submitted[name]
        server.shutdown()

    def test_custom_class_table(self):
        server = _server(
            request_classes={"bulk": 1.0, "interactive": 8.0},
            default_class="bulk",
        )
        handle = server.submit(0)
        assert handle.request_class == "bulk"
        boosted = server.submit(1, request_class="interactive")
        assert boosted.request.weight == 8.0
        server.drain()
        stats = server.stats()
        assert set(stats.class_requests) == {"bulk", "interactive"}
        server.shutdown()


class TestConfigValidation:
    def test_positional_arguments_are_rejected(self):
        with pytest.raises(TypeError):
            ServingConfig(2)

    def test_ingress_poll_interval_is_not_a_knob(self):
        # The pump's re-poll interval is the FrontDoor.POLL_INTERVAL constant.
        with pytest.raises(TypeError, match="ingress_poll_interval"):
            ServingConfig(ingress_poll_interval=0.0)

    def test_contradictory_block_policy_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="deadlock"):
            ServingConfig(
                overload_policy="block",
                max_queue_depth=2,
                flush_on_submit=False,
                ingress="sync",
            )
        # Either escape hatch resolves the conflict.
        ServingConfig(
            overload_policy="block", max_queue_depth=2, flush_on_submit=False, ingress="thread"
        )
        ServingConfig(overload_policy="block", max_queue_depth=2, flush_on_submit=True)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(request_classes=()), "at least one"),
            (dict(request_classes={"a": 0.0}), "positive"),
            (dict(request_classes={"a": float("inf")}), "finite"),
            (dict(request_classes=[("a", 1.0), ("a", 2.0)]), "duplicate"),
            (dict(default_class="nope"), "default_class"),
            (dict(ingress="carrier-pigeon"), "ingress"),
            (dict(max_batch_size=0), "max_batch_size"),
            (dict(max_delay=-1.0), "max_delay"),
            (dict(cache_capacity=-1), "cache_capacity"),
        ],
    )
    def test_contradictory_knobs_fail_with_clear_messages(self, kwargs, match):
        with pytest.raises((ValueError, TypeError), match=match):
            ServingConfig(**kwargs)

    def test_validate_returns_self_and_replace_revalidates(self):
        config = ServingConfig(num_shards=2)
        assert config.validate() is config
        with pytest.raises(ValueError, match="ingress"):
            dataclasses.replace(config, ingress="bogus")

    def test_request_classes_normalised_to_pairs(self):
        config = ServingConfig(request_classes={"hot": 3, "cold": 1}, default_class="hot")
        assert config.request_classes == (("hot", 3.0), ("cold", 1.0))
        assert config.class_weights() == {"hot": 3.0, "cold": 1.0}


class TestFlushRounds:
    def test_backlog_survives_the_round(self):
        # A round flushes at most one batch per due shard: the hot shard's
        # backlog waits for later rounds instead of being drained in one.
        clock = ManualClock()
        server = _server(
            clock=clock, num_shards=2, max_batch_size=2, max_delay=0.1, flush_on_submit=False
        )
        hot = _shard_nodes(server, 0, 8)
        cold = _shard_nodes(server, 1, 2)
        handles = server.submit_many(hot) + server.submit_many(cold)
        clock.advance(0.2)  # everything due by delay
        server.poll()
        assert server.scheduler.rounds == 1
        assert server.batcher.pending > 0  # hot shard still has a backlog
        server.drain()
        assert all(h.completed for h in handles)
        np.testing.assert_array_equal(
            [h.result() for h in handles], REFERENCE[[h.node for h in handles]]
        )
        server.shutdown()

    def test_overdue_request_expires_exactly_once_mid_round(self):
        # The deadline passes while the other shard flushes in the same
        # round; the doomed request is popped as expired, never served.
        clock = ManualClock()
        server = _server(
            clock=clock,
            num_shards=2,
            max_batch_size=1,
            max_delay=10.0,
            flush_on_submit=False,
        )
        doomed = server.submit(_shard_nodes(server, 1, 1)[0], timeout=0.5)
        served = server.submit(_shard_nodes(server, 0, 1)[0])

        worker = server.replicas.group(0)[0]
        original = worker.predict

        def slow_predict(nodes):
            clock.advance(1.0)  # the flush outlives the other request's deadline
            return original(nodes)

        worker.predict = slow_predict
        server.poll()
        assert server.scheduler.rounds == 1
        assert served.completed
        assert doomed.status == "expired"
        with pytest.raises(RequestExpired):
            doomed.result()
        stats = server.stats()
        assert stats.expired_requests == 1
        assert stats.completed_requests == 1
        server.shutdown()


class TestFrontDoorPump:
    def test_background_ingress_serves_without_drain(self):
        server = _server(
            clock=SystemClock(), ingress="thread", max_delay=0.005, max_batch_size=4
        )
        try:
            assert server.has_background_ingress
            handles = server.submit_many(range(8))
            results = [h.result(timeout=5.0) for h in handles]
            assert results == [int(REFERENCE[n]) for n in range(8)]
        finally:
            server.shutdown()
        assert not server.has_background_ingress

    def test_submit_does_not_block_while_a_round_is_in_flight(self):
        server = _server(
            clock=SystemClock(),
            ingress="thread",
            executor="concurrent",
            max_delay=0.005,
            max_batch_size=1,
        )
        try:
            entered, release = threading.Event(), threading.Event()
            worker = server.replicas.group(0)[0]
            original = worker.predict

            def gated(nodes):
                entered.set()
                assert release.wait(timeout=5.0)
                return original(nodes)

            worker.predict = gated
            blocked = server.submit(_shard_nodes(server, 0, 1)[0])
            assert entered.wait(timeout=5.0)
            # The pump is stuck inside shard 0's flush; submission still
            # returns immediately and lands in the queue.
            late = server.submit(_shard_nodes(server, 1, 1)[0])
            assert not late.done
            release.set()
            assert blocked.result(timeout=5.0) == int(REFERENCE[blocked.node])
            assert late.result(timeout=5.0) == int(REFERENCE[late.node])
        finally:
            release.set()
            server.shutdown()

    def test_drain_waits_for_in_flight_pump_batch(self):
        # batcher.pending only counts queued requests; a batch the pump has
        # popped but not finished serving must still hold drain() open, or
        # drain-then-read-handle callers race the pump thread.
        server = _server(
            clock=SystemClock(), ingress="thread", max_delay=0.005, max_batch_size=1
        )
        try:
            entered, release = threading.Event(), threading.Event()
            worker = server.replicas.group(0)[0]
            original = worker.predict

            def gated(nodes):
                entered.set()
                assert release.wait(timeout=5.0)
                return original(nodes)

            worker.predict = gated
            handle = server.submit(_shard_nodes(server, 0, 1)[0])
            assert entered.wait(timeout=5.0)  # pump is mid-flush, queue empty
            threading.Timer(0.05, release.set).start()
            server.drain()
            assert handle.done
            assert handle.completed
        finally:
            release.set()
            server.shutdown()

    def test_handles_are_awaitable_from_asyncio(self):
        server = _server(
            clock=SystemClock(), ingress="thread", max_delay=0.005, max_batch_size=2
        )
        try:

            async def main():
                return await asyncio.gather(
                    server.submit(0), server.submit(1, request_class="premium")
                )

            results = asyncio.run(main())
            assert results == [int(REFERENCE[0]), int(REFERENCE[1])]
        finally:
            server.shutdown()

    def test_thread_ingress_matches_sync_predictions(self):
        nodes = list(range(GRAPH.num_nodes))
        threaded = _server(clock=SystemClock(), ingress="thread", max_delay=0.005)
        try:
            handles = threaded.submit_many(nodes)
            got = [h.result(timeout=10.0) for h in handles]
        finally:
            threaded.shutdown()
        sync = _server()
        try:
            expected = sync.predict(nodes).tolist()
        finally:
            sync.shutdown()
        assert got == expected == [int(REFERENCE[n]) for n in nodes]

    def test_shutdown_stops_pump_and_rejects_new_work(self):
        server = _server(clock=SystemClock(), ingress="thread", max_delay=0.005)
        handle = server.submit(0)
        server.shutdown()
        assert handle.done
        assert not server.frontdoor.running
        with pytest.raises(RuntimeError, match="shut down"):
            server.submit(1)
        server.shutdown()  # idempotent

    def test_stats_report_ingress_mode(self):
        server = _server()
        try:
            assert server.stats().ingress == "sync"
            assert "ingress" in server.describe()
        finally:
            server.shutdown()


class TestHandlesUnderFaults:
    """RequestHandle waits under ``ingress="thread"`` while fault plans fire.

    The pump thread drives failover/degraded paths concurrently with the
    waiting caller, so these assert the handle contract (``result(timeout=)``,
    typed exceptions, awaitability) is unchanged by the fault layer.
    """

    def test_result_timeout_survives_failover_with_exact_predictions(self):
        # Replica 0 of shard 0 always raises; its sibling absorbs the work.
        plan = FaultPlan(FaultSpec(workers=(0,), fail_rate=1.0), seed=3)
        server = _server(
            clock=SystemClock(),
            ingress="thread",
            num_replicas=2,
            max_delay=0.005,
            fault_plan=plan,
            health_failure_threshold=1,
        )
        try:
            nodes = list(range(GRAPH.num_nodes))
            handles = server.submit_many(nodes)
            got = [h.result(timeout=10.0) for h in handles]
            assert got == [int(REFERENCE[n]) for n in nodes]
            stats = server.stats()
            assert stats.completed_requests == len(nodes)
            # Replica 0 died once; the sibling served while it was rebuilt.
            assert stats.worker_failures >= 1
        finally:
            server.shutdown()

    def test_request_failed_raises_through_result_and_exception(self):
        # Every replica always raises and there is nothing to fail over to:
        # the pump marks the request failed and the waiting caller gets the
        # typed exception instead of a hang.
        plan = FaultPlan(FaultSpec(fail_rate=1.0), seed=0)
        server = _server(
            clock=SystemClock(),
            ingress="thread",
            max_delay=0.005,
            fault_plan=plan,
            max_retries=1,
        )
        try:
            handle = server.submit(0)
            with pytest.raises(RequestFailed, match="failed"):
                handle.result(timeout=10.0)
            assert handle.done
            assert handle.status == "failed"
            exc = handle.exception(timeout=10.0)
            assert isinstance(exc, RequestFailed)
            assert exc.request_id == handle.request_id
        finally:
            server.shutdown()

    def test_die_fault_with_no_dispatchable_replica_fails_through_handles(self):
        # Warm the caches fault-free, then kill every replica permanently:
        # with zero dispatchable replicas the pump fails the batch, and
        # result(timeout=) raises RequestFailed even for warm rows.  Fault
        # windows are absolute clock time, so anchor `after` to the live
        # SystemClock reading.
        clock = SystemClock()
        plan = FaultPlan(FaultSpec(die_rate=1.0, after=clock.now() + 0.3), seed=0)
        server = _server(
            clock=clock,
            ingress="thread",
            max_delay=0.005,
            fault_plan=plan,
            max_retries=1,
            health_failure_threshold=1,
        )
        try:
            nodes = _shard_nodes(server, 0, 4)
            warm = [h.result(timeout=10.0) for h in server.submit_many(nodes)]
            assert warm == [int(REFERENCE[n]) for n in nodes]
            import time as _time

            _time.sleep(0.35)  # move past the fault window's `after`
            handles = server.submit_many(nodes)
            for handle in handles:
                with pytest.raises(RequestFailed, match="failed"):
                    handle.result(timeout=10.0)
                assert handle.status == "failed"
        finally:
            server.shutdown()

    def test_await_from_asyncio_while_a_replica_flaps(self):
        # Deterministic flapping on every replica; awaited handles resolve to
        # the exact predictions because failover hides the flaps.
        plan = FaultPlan(
            FaultSpec(flap_period=3, flap_down=1), seed=1
        )
        server = _server(
            clock=SystemClock(),
            ingress="thread",
            num_replicas=2,
            max_delay=0.005,
            fault_plan=plan,
            health_failure_threshold=2,
        )
        try:

            async def main():
                return await asyncio.gather(
                    *(server.submit(n) for n in range(8))
                )

            results = asyncio.run(main())
            assert results == [int(REFERENCE[n]) for n in range(8)]
        finally:
            server.shutdown()
