"""Self-healing serving: replica supervision and hang failover.

The contract under test:

* a ``die`` fault is permanent — the corpse fails every later dispatch —
  until :meth:`FaultPlan.revive` (a supervisor rebuild) clears it;
* the :class:`ReplicaSupervisor`, driven from the scheduler tick, quarantines
  every replica whose breaker is not closed and rebuilds it: fresh worker,
  bumped epoch, halo-pre-warmed cache,
  re-registered with health and dispatch; in-flight attempts against the
  retired corpse fail cleanly;
* ``restart_replica`` gives operators the same rebuild, draining in-flight
  batches first;
* a replica that hangs on every dispatch fails over to its sibling with
  predictions still exact;
* ``drain(timeout=)`` raises :class:`DrainTimeout` with a ledger snapshot
  and leaves the server usable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import CompressionConfig
from repro.models import create_model
from repro.serving import (
    DrainTimeout,
    FaultPlan,
    FaultSpec,
    HealthTracker,
    InferenceRequest,
    InferenceServer,
    ManualClock,
    ProcessWorkerHandle,
    ReplicaDead,
    ReplicaSupervisor,
    RequestHandle,
    ServingConfig,
    ShardWorker,
    WorkerRetired,
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


class TestDieFault:
    def test_die_is_permanent_until_revived(self):
        plan = FaultPlan(FaultSpec(workers=(0,), die_rate=1.0, until=0.5), seed=0)
        assert plan.decide(0, now=0.0).kind == "die"
        # Outside the spec window the corpse still fails: death is sticky.
        assert plan.decide(0, now=9.0).kind == "die"
        assert plan.dead_workers() == (0,)
        assert plan.decide(1, now=0.0) is None  # siblings unaffected
        plan.revive(0)
        assert plan.dead_workers() == ()
        assert plan.decide(0, now=9.0) is None  # window over: stays alive
        assert plan.injected["die"] == 2
        assert "die 100%" in plan.describe()

    def test_zero_die_rate_keeps_decision_sequences_identical(self):
        base = FaultPlan(FaultSpec(fail_rate=0.3, hang_rate=0.2), seed=5)
        with_die = FaultPlan(FaultSpec(fail_rate=0.3, hang_rate=0.2, die_rate=0.0), seed=5)
        a = [base.decide(0, now=0.0) for _ in range(50)]
        b = [with_die.decide(0, now=0.0) for _ in range(50)]
        assert a == b

    def test_replica_dead_is_a_runtime_error(self):
        assert issubclass(ReplicaDead, RuntimeError)
        assert issubclass(WorkerRetired, RuntimeError)


class TestSupervisorRebuild:
    def test_supervisor_rebuilds_on_first_breaker_open(self, small_graph):
        # Default breaker and retry settings: three failed attempts open the
        # single replica's breaker, and the tick at the end of that round
        # rebuilds it — no second open is waited for.
        model = _model(small_graph)
        clock = ManualClock()
        server = _server(
            model,
            small_graph,
            clock=clock,
            num_shards=1,
            num_replicas=1,
            fault_plan=FaultPlan(FaultSpec(die_rate=1.0), seed=0),
            supervisor=True,
        )
        server.scheduler.flush_on_submit = False
        first = server.submit_many(range(4))
        server.drain()
        assert all(request.status == "failed" for request in first)
        assert server.stats().supervisor_restarts == 1
        assert server.workers[0].epoch == 1

    def test_breaker_churn_triggers_quarantine_and_rebuild(self, small_graph):
        # Single replica: die at t=0 opens the breaker, the round-barrier
        # tick rebuilds it at once, and once the die window has passed the
        # replacement serves exact answers.
        model = _model(small_graph)
        reference = model.full_forward(small_graph).data.argmax(axis=-1)
        clock = ManualClock()
        plan = FaultPlan(FaultSpec(die_rate=1.0, until=0.5), seed=0)
        server = _server(
            model,
            small_graph,
            clock=clock,
            num_shards=1,
            num_replicas=1,
            fault_plan=plan,
            supervisor=True,
            health_failure_threshold=1,
            health_cooldown=0.1,
            max_retries=1,
        )
        server.scheduler.flush_on_submit = False

        first = server.submit_many(range(4))
        server.drain()
        assert all(request.status == "failed" for request in first)
        stats = server.stats()
        assert stats.supervisor_restarts == 1  # rebuilt after the first open
        assert stats.supervisor_quarantines == 1

        rebuilt = server.workers[0]
        assert rebuilt.epoch == 1
        assert not rebuilt.retired
        assert plan.dead_workers() == ()  # revive() ran
        assert server.health.state(0, clock.now()) == "closed"

        clock.advance(0.6)  # past the die window: the replacement stays up
        second = server.submit_many(range(8, 16))
        server.drain()
        assert all(request.completed for request in second)
        for request in second:
            assert request.prediction == reference[request.node]
        assert server.stats().supervisor_restarts == 1  # healed once, stayed healed

        events = server.supervisor.event_log()
        assert [event["event"] for event in events] == ["quarantine", "rebuild"]
        assert events[0]["epoch"] == 0 and events[1]["epoch"] == 1
        assert events[1]["reason"] == "breaker open"
        render = server.stats().render()
        assert "self-healing: 1 replica rebuilds" in render
        assert "epoch 1" in render

    def test_one_tick_rebuilds_every_open_replica(self, small_graph):
        model = _model(small_graph)
        server = _server(
            model,
            small_graph,
            num_shards=1,
            num_replicas=2,
            fault_plan=FaultPlan(FaultSpec(die_rate=1.0, until=0.5), seed=0),
            supervisor=True,
            health_failure_threshold=1,
        )
        server.scheduler.flush_on_submit = False
        requests = server.submit_many(range(4))
        server.drain()  # both replicas die and open in the same batch
        assert all(request.status == "failed" for request in requests)
        assert server.stats().supervisor_restarts == 2
        assert [worker.epoch for worker in server.workers] == [1, 1]
        assert [event["event"] for event in server.supervisor.event_log()] == [
            "quarantine", "rebuild", "quarantine", "rebuild",
        ]

    def test_tick_is_idle_until_a_breaker_opens(self, small_graph):
        model = _model(small_graph)
        server = _server(model, small_graph, num_shards=1, num_replicas=2, supervisor=True)
        server.predict(range(16))
        assert server.supervise() == 0
        assert server.supervisor.event_log() == []
        for _ in range(3):  # default threshold: three failures open worker 0
            server.health.record_failure(0, server.clock.now())
        assert server.supervise() == 1
        # The open ledger has not moved since: the next tick does nothing.
        assert server.supervise() == 0
        assert server.stats().supervisor_restarts == 1

    def test_half_open_replica_is_rebuilt(self, small_graph):
        model = _model(small_graph)
        clock = ManualClock()
        server = _server(
            model,
            small_graph,
            clock=clock,
            num_shards=1,
            num_replicas=1,
            supervisor=True,
            health_failure_threshold=1,
            health_cooldown=0.1,
        )
        server.health.record_failure(0, clock.now())
        clock.advance(0.2)
        assert server.health.state(0, clock.now()) == "half_open"
        assert server.supervise() == 1
        assert server.supervisor.last_event()["reason"] == "breaker half_open"
        assert server.workers[0].epoch == 1
        assert server.health.state(0, clock.now()) == "closed"

    def test_quarantined_replica_is_not_rebuilt_by_the_tick(self, small_graph):
        model = _model(small_graph)
        server = _server(
            model,
            small_graph,
            num_shards=1,
            num_replicas=2,
            supervisor=True,
            health_failure_threshold=1,
        )
        now = server.clock.now()
        server.health.record_failure(0, now)
        server.health.record_failure(1, now)
        server.health.quarantine(1)
        assert server.supervise() == 1
        assert [worker.epoch for worker in server.workers] == [1, 0]
        assert server.health.state(1, now) == "quarantined"

    def test_supervisor_off_means_no_rebuilds(self, small_graph):
        model = _model(small_graph)
        clock = ManualClock()
        plan = FaultPlan(FaultSpec(die_rate=1.0), seed=0)
        server = _server(
            model,
            small_graph,
            clock=clock,
            num_shards=1,
            num_replicas=1,
            fault_plan=plan,
            health_failure_threshold=1,
            health_cooldown=0.1,
            max_retries=1,
        )
        server.scheduler.flush_on_submit = False
        for wave in range(3):
            server.submit_many(range(wave * 4, wave * 4 + 4))
            server.drain()
            clock.advance(0.2)
        stats = server.stats()
        assert stats.supervisor_restarts == 0
        assert server.workers[0].epoch == 0
        assert "self-healing" not in stats.render()

    def test_retired_corpse_fails_cleanly(self, small_graph):
        model = _model(small_graph)
        server = _server(model, small_graph, num_shards=1, num_replicas=2)
        corpse = server.workers[0]
        server._rebuild_replica(0, 0)
        with pytest.raises(WorkerRetired):
            corpse.predict(np.array([0], dtype=np.int64))
        # The swap is visible to dispatch: the slot holds the replacement.
        assert server._replicas[0][0] is not corpse
        assert server._replicas[0][0].epoch == corpse.epoch + 1
        assert server.workers[0] is server._replicas[0][0]

    def test_restart_replica_drains_and_prewarms_from_halo(self, small_graph):
        model = _model(small_graph)
        reference = model.full_forward(small_graph).data.argmax(axis=-1)
        server = _server(model, small_graph, num_shards=2, num_replicas=2)
        assert server.halo_store is not None
        nodes = np.arange(small_graph.num_nodes)
        assert np.array_equal(server.predict(nodes), reference)

        old = server._replicas[0][0]
        replacement = server.restart_replica(0, 0)
        assert replacement is not old
        assert old.retired
        assert replacement.epoch == 1
        assert replacement.worker_id == old.worker_id
        stats = server.stats()
        assert stats.supervisor_restarts == 1
        assert stats.prewarmed_rows > 0  # halo rows seeded the fresh cache
        assert server.supervisor.last_event()["reason"] == "operator restart"
        # The rebuilt fleet still serves bitwise-exact answers.
        assert np.array_equal(server.predict(nodes), reference)

    def test_restart_replica_validates_indices(self, small_graph):
        model = _model(small_graph)
        server = _server(model, small_graph, num_shards=1, num_replicas=1)
        with pytest.raises(ValueError):
            server.restart_replica(5, 0)
        with pytest.raises(ValueError):
            server.restart_replica(0, 3)


class TestDeletedResilienceKnobs:
    def test_deleted_constructor_arguments_raise(self):
        with pytest.raises(TypeError):
            FaultSpec(slow_rate=0.1)
        with pytest.raises(TypeError):
            HealthTracker([0], latency_threshold=0.01)
        with pytest.raises(TypeError):
            ReplicaSupervisor(None, failure_budget=1)

    def test_no_stale_read_surface(self):
        for cls in (ShardWorker, ProcessWorkerHandle):
            assert not hasattr(cls, "degraded_logits")
        assert not hasattr(RequestHandle, "stale")
        request = InferenceRequest(request_id=0, node=0, shard_id=0, enqueue_time=0.0)
        assert not hasattr(request, "stale")


class TestHangFailover:
    def test_hanging_primary_fails_over_to_its_sibling(self, small_graph):
        # Worker 0 hangs on every dispatch: each of its attempts is declared
        # dead and the batch retries on the healthy sibling replica.
        model = _model(small_graph)
        reference = model.full_forward(small_graph).data.argmax(axis=-1)
        clock = ManualClock()
        plan = FaultPlan(
            FaultSpec(workers=(0,), hang_rate=1.0, hang_seconds=0.3), seed=0
        )
        server = _server(
            model,
            small_graph,
            clock=clock,
            num_shards=1,
            num_replicas=2,
            fault_plan=plan,
        )
        nodes = np.arange(16)
        assert np.array_equal(server.predict(nodes), reference[nodes])
        stats = server.stats()
        assert stats.failed_requests == 0
        assert stats.worker_failures > 0
        assert stats.failovers > 0


class TestDrainTimeout:
    def test_drain_timeout_raises_with_ledger_snapshot(self, small_graph):
        model = _model(small_graph)
        server = _server(model, small_graph, num_shards=2)
        server.scheduler.flush_on_submit = False
        requests = server.submit_many(range(12))
        with pytest.raises(DrainTimeout) as excinfo:
            server.drain(timeout=0.0)
        snapshot = excinfo.value.snapshot
        assert snapshot["pending"] == 12
        assert sum(snapshot["queue_depths"].values()) == 12
        assert snapshot["inflight_flushes"] == 0
        assert snapshot["terminal"]["completed"] == 0
        # The server stays usable: a later, unbounded drain finishes the work.
        server.drain()
        assert all(request.completed for request in requests)

    def test_drain_without_timeout_is_unchanged(self, small_graph):
        model = _model(small_graph)
        server = _server(model, small_graph)
        server.scheduler.flush_on_submit = False
        requests = server.submit_many(range(8))
        server.drain()
        assert all(request.completed for request in requests)
