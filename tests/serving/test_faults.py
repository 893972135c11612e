"""Fault injection, failover, dark shards and the no-lost-request invariant.

The contract under test:

* a :class:`FaultPlan` is deterministic — same seed, same dispatch sequence,
  same faults — and windowed/flapping schedules fire exactly as written;
* a replica that raises (or hangs past a deadline) fails only its own
  batch's attempt: the batch fails over to a sibling, completed predictions
  stay bitwise-equal to the fault-free run, and a drain never raises;
* a shard with zero dispatchable replicas fails its batch, and the next
  tick rebuilds its dead replicas;
* the HaloStore epoch guard keeps a dying replica's publishes out of the
  shared tier;
* under *any* fault plan, every submitted request reaches exactly one
  terminal state and the stats ledger balances (the hypothesis property).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import CompressionConfig
from repro.graph.datasets import synthetic_graph
from repro.models import create_model
from repro.serving import (
    TERMINAL_STATUSES,
    FaultPlan,
    FaultSpec,
    HaloStore,
    InferenceServer,
    InjectedFault,
    ManualClock,
    ServingConfig,
)


def _model(graph, block_size=1, seed=0):
    return create_model(
        "GCN",
        in_features=graph.num_features,
        hidden_features=16,
        num_classes=graph.num_classes,
        compression=CompressionConfig(block_size=block_size),
        seed=seed,
    )


def _server(model, graph, clock=None, **overrides):
    defaults = dict(num_shards=2, max_batch_size=8, max_delay=0.5, cache_capacity=1024, seed=0)
    defaults.update(overrides)
    return InferenceServer(
        model, graph, ServingConfig(**defaults), clock=clock or ManualClock()
    )


class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(fail_rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(fail_rate=0.6, hang_rate=0.6)  # sum > 1
        with pytest.raises(ValueError):
            FaultSpec(hang_seconds=-1.0)
        with pytest.raises(ValueError):
            FaultSpec(flap_period=4, flap_down=5)
        with pytest.raises(ValueError):
            FaultSpec(after=2.0, until=1.0)
        with pytest.raises(ValueError):
            FaultPlan(())

    def test_decisions_are_deterministic_per_seed(self):
        spec = FaultSpec(fail_rate=0.2, hang_rate=0.1)
        plans = [FaultPlan(spec, seed=42) for _ in range(2)]
        sequences = [
            [plan.decide(worker_id, now=0.0) for worker_id in (0, 1, 0, 1, 0) for _ in range(20)]
            for plan in plans
        ]
        assert sequences[0] == sequences[1]
        assert plans[0].injected == plans[1].injected
        assert any(decision is not None for decision in sequences[0])
        # A different seed gives a different schedule.
        other = FaultPlan(spec, seed=43)
        assert sequences[0] != [
            [other.decide(worker_id, now=0.0) for worker_id in (0, 1, 0, 1, 0) for _ in range(20)]
        ][0]

    def test_worker_streams_are_independent(self):
        # Worker 1's decisions do not depend on how often worker 0 was asked.
        spec = FaultSpec(fail_rate=0.5)
        plan_a = FaultPlan(spec, seed=7)
        plan_b = FaultPlan(spec, seed=7)
        for _ in range(10):
            plan_a.decide(0, now=0.0)  # extra traffic on worker 0 only
        a = [plan_a.decide(1, now=0.0) for _ in range(10)]
        b = [plan_b.decide(1, now=0.0) for _ in range(10)]
        assert a == b

    def test_flap_schedule_is_exact(self):
        plan = FaultPlan(FaultSpec(flap_period=4, flap_down=2), seed=0)
        kinds = [plan.decide(0, now=0.0).kind for _ in range(2)]
        assert kinds == ["raise", "raise"]
        assert plan.decide(0, now=0.0) is None  # dispatches 2 and 3 are up
        assert plan.decide(0, now=0.0) is None
        assert plan.decide(0, now=0.0).kind == "raise"  # next period starts

    def test_time_window_gates_the_spec(self):
        plan = FaultPlan(FaultSpec(fail_rate=1.0, after=1.0, until=2.0), seed=0)
        assert plan.decide(0, now=0.5) is None
        assert plan.decide(0, now=1.0).kind == "raise"
        assert plan.decide(0, now=2.0) is None  # until is exclusive

    def test_worker_filter_reset_and_describe(self):
        plan = FaultPlan(FaultSpec(workers=(1,), fail_rate=1.0), seed=0)
        assert plan.decide(0, now=0.0) is None
        assert plan.decide(1, now=0.0).kind == "raise"
        assert plan.total_injected == 1
        plan.reset()
        assert plan.total_injected == 0
        assert "workers [1]" in plan.describe()
        convenience = FaultPlan.replica_failures(0.25, seed=3)
        assert convenience.specs[0].fail_rate == 0.25


class TestFailover:
    def test_failed_batches_fail_over_and_answers_stay_exact(self, small_graph):
        model = _model(small_graph)
        reference = model.full_forward(small_graph).data.argmax(axis=-1)
        nodes = np.random.default_rng(3).choice(small_graph.num_nodes, size=96, replace=True)
        plan = FaultPlan.replica_failures(0.3, seed=11)
        server = _server(model, small_graph, num_replicas=2, fault_plan=plan)
        requests = server.submit_many(nodes)
        server.drain()
        stats = server.stats()
        assert stats.worker_failures > 0          # faults really fired
        assert stats.injected_faults == stats.worker_failures
        assert stats.failovers > 0                # and siblings picked them up
        assert all(request.completed for request in requests)
        for request in requests:
            assert request.prediction == reference[request.node]
        assert stats.submitted_requests == len(requests)

    def test_two_shards_failing_in_the_same_round_both_settle(self, small_graph):
        # Both shards' (only) replicas raise in the same drain round: each
        # batch exhausts its retries and fails, the round itself survives,
        # and nothing is left pending.
        model = _model(small_graph)
        server = _server(model, small_graph, num_shards=2, num_replicas=1, max_retries=1)
        server.scheduler.flush_on_submit = False
        requests = server.submit_many(range(16))
        assert len({request.shard_id for request in requests}) == 2

        def boom(nodes):
            raise RuntimeError("replica down")

        for worker in server.workers:
            worker.predict = boom
        server.drain()  # must not raise
        assert all(request.status == "failed" for request in requests)
        stats = server.stats()
        assert stats.failed_requests == 16
        assert stats.submitted_requests == 16

    @pytest.mark.parametrize("window", ["first", "after_reset"])
    def test_retry_counts_and_request_metadata(self, small_graph, window):
        model = _model(small_graph)
        plan = FaultPlan(FaultSpec(workers=(0,), fail_rate=1.0), seed=0)
        server = _server(
            model, small_graph, num_shards=1, num_replicas=2, fault_plan=plan
        )
        server.scheduler.flush_on_submit = False
        if window == "after_reset":
            # A faulty window, then reset_stats(): the plan's injected count
            # starts over with the failure count it must equal.
            server.submit_many(range(8, 24))  # two batches: worker 0 is next
            server.drain()
            server.reset_stats()
        requests = server.submit_many(range(8))
        server.drain()
        assert all(request.completed for request in requests)
        # Whoever was dispatched to worker 0 retried at least once and was
        # finally served by worker 1.
        retried = [request for request in requests if request.retries]
        assert retried
        assert all(request.worker_id == 1 for request in retried)
        # Every failed attempt was retried at once: one retry per failure.
        stats = server.stats()
        assert stats.retry_attempts == stats.worker_failures > 0
        assert stats.injected_faults == stats.worker_failures

    def test_hang_past_deadline_expires_requests_deadline_aware(self, small_graph):
        # The hang burns more clock than the deadline allows; the retry
        # machinery must expire those requests rather than retry past it.
        model = _model(small_graph)
        clock = ManualClock()
        plan = FaultPlan(FaultSpec(hang_rate=1.0, hang_seconds=0.2), seed=0)
        server = _server(
            model,
            small_graph,
            clock=clock,
            num_shards=1,
            num_replicas=2,
            default_timeout=0.05,
            fault_plan=plan,
            max_retries=2,
        )
        server.scheduler.flush_on_submit = False
        requests = server.submit_many(range(6))
        server.drain()
        assert [request.status for request in requests] == ["expired"] * 6
        assert clock.now() >= 0.2  # the hang really consumed clock time
        stats = server.stats()
        assert stats.expired_requests == 6
        assert stats.submitted_requests == 6

    def test_dead_replica_takes_no_traffic_until_rebuilt(self, small_graph):
        # Worker 0 dies; the next round's batch skips it although round-robin
        # points at it, and the tick at the round barrier rebuilds the slot,
        # after which it serves again.
        model = _model(small_graph)
        reference = model.full_forward(small_graph).data.argmax(axis=-1)
        server = _server(
            model, small_graph, num_shards=1, num_replicas=2, health_failure_threshold=1
        )
        server.replicas.record_failure(server.workers[0])
        assert server.replicas.state(0) == "dead"
        server.scheduler.flush_on_submit = False
        requests = server.submit_many(range(8))
        server.scheduler.drain()  # one round, then the barrier tick
        assert all(request.completed and request.worker_id == 1 for request in requests)
        assert server.workers[0].epoch == 1 and server.replicas.state(0) == "healthy"
        nodes = np.arange(8, 40)
        assert np.array_equal(server.predict(nodes), reference[nodes])
        assert server.workers[0].batches_served > 0

    def test_zero_rate_plan_changes_nothing(self, small_graph):
        model = _model(small_graph)
        nodes = np.random.default_rng(5).choice(small_graph.num_nodes, size=64, replace=True)
        results = {}
        for label, plan in (
            ("none", None),
            ("zero", FaultPlan(FaultSpec(fail_rate=0.0), seed=0)),
        ):
            server = _server(model, small_graph, num_replicas=2, fault_plan=plan)
            predictions = server.predict(nodes)
            stats = server.stats()
            results[label] = (predictions, stats.worker_failures, stats.injected_faults)
            server.shutdown()
        assert np.array_equal(results["none"][0], results["zero"][0])
        assert results["zero"][1] == 0 and results["zero"][2] == 0


class TestRetryRule:
    """A failed attempt retries at once, up to ``max_retries`` times."""

    def test_retry_is_immediate_and_burns_no_clock(self, small_graph):
        model = _model(small_graph)
        clock = ManualClock()
        plan = FaultPlan(FaultSpec(workers=(0,), fail_rate=1.0), seed=0)
        server = _server(
            model, small_graph, clock=clock, num_shards=1, num_replicas=2, fault_plan=plan
        )
        server.scheduler.flush_on_submit = False
        requests = server.submit_many(range(16))
        server.drain()
        assert all(request.completed for request in requests)
        assert server.stats().retry_attempts > 0
        assert clock.now() == 0.0  # no sleep between attempts

    def test_max_retries_caps_attempts_per_batch(self, small_graph):
        model = _model(small_graph)
        clock = ManualClock()
        plan = FaultPlan(FaultSpec(fail_rate=1.0), seed=0)
        server = _server(
            model,
            small_graph,
            clock=clock,
            num_shards=1,
            num_replicas=2,
            fault_plan=plan,
            max_retries=2,
            health_failure_threshold=100,  # no replica dies
        )
        server.scheduler.flush_on_submit = False
        requests = server.submit_many(range(4))  # one batch
        server.drain()
        assert all(request.status == "failed" for request in requests)
        assert all(request.retries == 2 for request in requests)
        stats = server.stats()
        assert stats.worker_failures == 3  # the first attempt + two retries
        assert stats.retry_attempts == 2
        assert plan.total_injected == 3
        assert clock.now() == 0.0

    def test_zero_max_retries_fails_on_the_first_error(self, small_graph):
        model = _model(small_graph)
        plan = FaultPlan(FaultSpec(workers=(0,), fail_rate=1.0), seed=0)
        server = _server(
            model,
            small_graph,
            num_shards=1,
            num_replicas=2,
            fault_plan=plan,
            max_retries=0,
        )
        server.scheduler.flush_on_submit = False
        requests = server.submit_many(range(4))  # round robin: worker 0 first
        server.drain()
        assert all(request.status == "failed" for request in requests)
        stats = server.stats()
        assert (stats.worker_failures, stats.retry_attempts) == (1, 0)
        assert server.workers[1].batches_served == 0  # the sibling was never asked

    def test_single_replica_retries_in_place(self, small_graph):
        # Flap: the first dispatch raises, the second is up.  With no sibling
        # the retry goes back to the replica that just failed.
        model = _model(small_graph)
        reference = model.full_forward(small_graph).data.argmax(axis=-1)
        plan = FaultPlan(FaultSpec(flap_period=2, flap_down=1), seed=0)
        server = _server(
            model, small_graph, num_shards=1, num_replicas=1, fault_plan=plan
        )
        server.scheduler.flush_on_submit = False
        requests = server.submit_many(range(4))
        server.drain()
        assert all(request.completed for request in requests)
        assert all(request.retries == 1 and request.worker_id == 0 for request in requests)
        for request in requests:
            assert request.prediction == reference[request.node]
        stats = server.stats()
        assert stats.worker_failures == 1
        assert stats.failovers == 0  # served by the replica that failed

    def test_only_overdue_requests_expire_at_retry(self, small_graph):
        # Worker 0 hangs 0.2 s.  At the retry, the requests whose deadline
        # passed expire; the rest are served by the sibling.
        model = _model(small_graph)
        reference = model.full_forward(small_graph).data.argmax(axis=-1)
        clock = ManualClock()
        plan = FaultPlan(FaultSpec(workers=(0,), hang_rate=1.0, hang_seconds=0.2), seed=0)
        server = _server(
            model,
            small_graph,
            clock=clock,
            num_shards=1,
            num_replicas=2,
            fault_plan=plan,
        )
        server.scheduler.flush_on_submit = False
        tight = server.submit_many(range(3), timeout=0.1)
        loose = server.submit_many(range(3, 6), timeout=5.0)
        server.drain()
        assert [request.status for request in tight] == ["expired"] * 3
        assert all(request.completed and request.worker_id == 1 for request in loose)
        for request in loose:
            assert request.prediction == reference[request.node]
        stats = server.stats()
        assert (stats.expired_requests, stats.completed_requests) == (3, 3)


class TestDarkShard:
    def _dead_replica_server(self, model, graph, **overrides):
        # Replicas die on their first failure, so once the (windowed, total)
        # fault plan kicks in both replicas of the shard die in one batch.
        plan = FaultPlan(FaultSpec(fail_rate=1.0, after=1.0), seed=0)
        defaults = dict(
            num_shards=1,
            num_replicas=2,
            fault_plan=plan,
            health_failure_threshold=1,
            max_retries=2,
        )
        defaults.update(overrides)
        return _server(model, graph, **defaults)

    def test_dark_shard_fails_the_whole_batch(self, small_graph):
        model = _model(small_graph)
        server = self._dead_replica_server(model, small_graph)
        server.predict(list(range(24)))  # warm caches never answer a dark shard
        server.clock.advance(2.0)
        server.scheduler.flush_on_submit = False
        requests = server.submit_many(range(6))
        server.drain()
        assert all(request.status == "failed" for request in requests)
        stats = server.stats()
        assert stats.failed_requests == 6
        assert "served stale" not in stats.render()

    def test_dark_shard_fails_without_dispatching(self, small_graph):
        # Once both replicas are dead, the batch fails on the spot: the rest
        # of the retry budget is not spent, so the plan fires once per
        # replica and two retries are counted, not five.
        model = _model(small_graph)
        server = self._dead_replica_server(model, small_graph, max_retries=5)
        server.clock.advance(2.0)
        server.scheduler.flush_on_submit = False
        requests = server.submit_many(range(4))
        server.drain()
        assert all(request.status == "failed" for request in requests)
        assert all(request.retries == 2 for request in requests)
        plan = server.config.fault_plan
        assert (plan.total_injected, server.stats().worker_failures) == (2, 2)

    def test_dark_shard_recovers_through_a_rebuild(self, small_graph):
        model = _model(small_graph)
        reference = model.full_forward(small_graph).data.argmax(axis=-1)
        plan = FaultPlan(FaultSpec(fail_rate=1.0, until=1.0), seed=0)
        server = _server(
            model,
            small_graph,
            num_shards=1,
            num_replicas=1,
            fault_plan=plan,
            health_failure_threshold=1,
        )
        server.scheduler.flush_on_submit = False
        dark = server.submit_many(range(4))
        server.drain()
        assert all(request.status == "failed" for request in dark)
        # The round's tick rebuilt the dead replica at the next epoch.
        assert server.replicas.state(0) == "healthy"
        assert server.workers[0].epoch == 1
        server.clock.advance(2.0)  # the fault window closed
        served = server.submit_many(range(4, 12))
        server.drain()
        assert all(request.completed for request in served)
        for request in served:
            assert request.prediction == reference[request.node]
        assert server.stats().supervisor_restarts == 1


class TestHaloEpochGuard:
    def test_stale_epoch_publishes_are_discarded(self):
        store = HaloStore(10)
        fresh = store.epoch
        store.publish(1, [0, 1], np.ones((2, 3)), epoch=fresh)
        assert store.contains(1, 0)
        stale = store.epoch
        store.bump_epoch()
        store.publish(1, [2, 3], np.ones((2, 3)), epoch=stale)
        assert not store.contains(1, 2)
        assert store.stats.discarded == 2
        store.publish(1, [4], np.ones((1, 3)), epoch=store.epoch)
        assert store.contains(1, 4)
        # Publishes that never sampled an epoch keep working (legacy callers).
        store.publish(1, [5], np.ones((1, 3)))
        assert store.contains(1, 5)

    def test_worker_failure_bumps_the_server_epoch(self, small_graph):
        model = _model(small_graph)
        plan = FaultPlan(FaultSpec(workers=(0,), fail_rate=1.0), seed=0)
        server = _server(model, small_graph, num_shards=1, num_replicas=2, fault_plan=plan)
        assert server.halo_store is not None
        before = server.halo_store.epoch
        server.predict(range(8))
        assert server.halo_store.epoch > before


GRAPH = synthetic_graph(
    num_nodes=48, num_edges=180, num_features=8, num_classes=3, seed=11, name="faults-graph"
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


def _operations():
    return st.lists(
        st.one_of(
            st.tuples(st.just("submit"), st.integers(0, GRAPH.num_nodes - 1)),
            st.tuples(st.just("advance"), st.floats(0.01, 1.0)),
            st.tuples(st.just("poll"), st.just(0)),
            st.tuples(st.just("drain"), st.just(0)),
        ),
        min_size=1,
        max_size=40,
    )


@settings(max_examples=40, deadline=None)
@given(
    operations=_operations(),
    num_replicas=st.integers(1, 2),
    fail_rate=st.floats(0.0, 0.6),
    hang_rate=st.floats(0.0, 0.2),
    flap=st.booleans(),
    fault_seed=st.integers(0, 5),
    max_retries=st.integers(0, 2),
    default_timeout=st.one_of(st.none(), st.floats(0.05, 0.5)),
)
def test_every_request_terminates_exactly_once_under_any_fault_plan(
    operations,
    num_replicas,
    fail_rate,
    hang_rate,
    flap,
    fault_seed,
    max_retries,
    default_timeout,
):
    plan = FaultPlan(
        FaultSpec(
            fail_rate=fail_rate,
            hang_rate=hang_rate,
            hang_seconds=0.6,
            flap_period=5 if flap else 0,
            flap_down=2 if flap else 0,
        ),
        seed=fault_seed,
    )
    clock = ManualClock()
    server = InferenceServer(
        MODEL,
        GRAPH,
        ServingConfig(
            num_shards=2,
            num_replicas=num_replicas,
            max_batch_size=4,
            max_delay=0.2,
            cache_capacity=64,
            fault_plan=plan,
            max_retries=max_retries,
            health_failure_threshold=2,
            default_timeout=default_timeout,
            seed=0,
        ),
        clock=clock,
    )

    requests = []
    for operation, value in operations:
        if operation == "submit":
            requests.append(server.submit(value))
        elif operation == "advance":
            clock.advance(value)
        elif operation == "poll":
            server.poll()
        else:
            server.drain()
    server.shutdown()  # final drain: nothing may stay pending

    # Exactly-once termination, under any fault schedule.
    assert all(request.status in TERMINAL_STATUSES for request in requests)
    assert all(request.done for request in requests)
    for request in requests:
        if request.status == "completed":
            assert request.prediction == REFERENCE[request.node]
        else:
            assert request.prediction is None

    # The ledger balances: nothing dropped, nothing double-counted.
    stats = server.stats()
    assert stats.submitted_requests == len(requests)
    assert stats.completed_requests == sum(r.status == "completed" for r in requests)
    assert stats.failed_requests == sum(r.status == "failed" for r in requests)
    assert stats.expired_requests == sum(r.status == "expired" for r in requests)
    assert server.batcher.pending == 0


def test_injected_fault_is_a_runtime_error():
    # Callers that caught RuntimeError for PR-3 worker crashes keep working.
    assert issubclass(InjectedFault, RuntimeError)
