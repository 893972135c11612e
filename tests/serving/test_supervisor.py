"""Self-healing serving: replica supervision, retry budgets, hang failover.

The contract under test:

* a ``die`` fault is permanent — the corpse fails every later dispatch —
  until :meth:`FaultPlan.revive` (a supervisor rebuild) clears it;
* the :class:`ReplicaSupervisor`, driven from the scheduler tick, quarantines
  a replica whose breaker re-opens ``failure_budget`` times inside ``window``
  and rebuilds it: fresh worker, bumped epoch, halo-pre-warmed cache,
  re-registered with health and dispatch; in-flight attempts against the
  retired corpse fail cleanly;
* ``restart_replica`` gives operators the same rebuild, draining in-flight
  batches first;
* the process-wide :class:`RetryBudget` caps total retries exactly (refill=0)
  and, once empty, failures degrade immediately instead of retrying;
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
    InferenceServer,
    ManualClock,
    ReplicaDead,
    ReplicaSupervisor,
    RetryBudget,
    ServingConfig,
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


class TestRetryBudget:
    def test_spend_refill_and_counters(self):
        budget = RetryBudget(2, refill=0.5)
        assert budget.try_spend() and budget.try_spend()
        assert not budget.try_spend()          # bucket empty
        assert (budget.spent, budget.denied) == (2, 1)
        budget.on_success()
        assert budget.tokens == pytest.approx(0.5)
        assert not budget.try_spend()          # half a token is not a retry
        budget.on_success()
        assert budget.try_spend()              # 1.0 accumulated
        for _ in range(10):
            budget.on_success()
        assert budget.tokens <= budget.capacity  # never refills past capacity
        budget.reset_counters()
        assert (budget.spent, budget.denied) == (0, 0)

    def test_zero_refill_is_an_exact_ceiling(self):
        budget = RetryBudget(3, refill=0.0)
        assert sum(budget.try_spend() for _ in range(10)) == 3
        budget.on_success()                    # refill disabled: still empty
        assert not budget.try_spend()

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryBudget(-1)
        with pytest.raises(ValueError):
            RetryBudget(1, refill=-0.1)
        with pytest.raises(ValueError):
            ReplicaSupervisor(None, failure_budget=0)
        with pytest.raises(ValueError):
            ReplicaSupervisor(None, window=0.0)


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
        base = FaultPlan(FaultSpec(fail_rate=0.3, slow_rate=0.2), seed=5)
        with_die = FaultPlan(FaultSpec(fail_rate=0.3, slow_rate=0.2, die_rate=0.0), seed=5)
        a = [base.decide(0, now=0.0) for _ in range(50)]
        b = [with_die.decide(0, now=0.0) for _ in range(50)]
        assert a == b

    def test_replica_dead_is_a_runtime_error(self):
        assert issubclass(ReplicaDead, RuntimeError)
        assert issubclass(WorkerRetired, RuntimeError)


class TestSupervisorRebuild:
    def test_breaker_churn_triggers_quarantine_and_rebuild(self, small_graph):
        # Single replica, so the half-open corpse really gets probed: die at
        # t=0 (open #1), failed probe after cooldown (open #2) => budget hit,
        # the supervisor rebuilds at the round barrier, and once the die
        # window has passed the replacement serves exact answers.
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
            supervisor_failure_budget=2,
            supervisor_window=10.0,
            health_failure_threshold=1,
            health_cooldown=0.1,
            max_retries=1,
        )
        server.scheduler.flush_on_submit = False

        first = server.submit_many(range(4))
        server.drain()
        assert all(request.status == "failed" for request in first)
        assert server.stats().supervisor_restarts == 0  # one open < budget

        clock.advance(0.2)  # cooldown over: next dispatch probes the corpse
        second = server.submit_many(range(4, 8))
        server.drain()
        stats = server.stats()
        assert stats.supervisor_restarts == 1
        assert stats.supervisor_quarantines == 1
        assert all(request.status == "failed" for request in second)

        rebuilt = server.workers[0]
        assert rebuilt.epoch == 1
        assert not rebuilt.retired
        assert plan.dead_workers() == ()  # revive() ran
        assert server.health.state(0, clock.now()) == "closed"

        clock.advance(0.4)  # past the die window: the replacement stays up
        third = server.submit_many(range(8, 16))
        server.drain()
        assert all(request.completed for request in third)
        for request in third:
            assert request.prediction == reference[request.node]
        assert server.stats().supervisor_restarts == 1  # healed once, stayed healed

        events = server.supervisor.event_log()
        assert [event["event"] for event in events] == ["quarantine", "rebuild"]
        assert events[0]["epoch"] == 0 and events[1]["epoch"] == 1
        assert "breaker opens" in events[1]["reason"]
        render = server.stats().render()
        assert "self-healing: 1 replica rebuilds" in render
        assert "epoch 1" in render

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


class TestEngineRetryBudget:
    def _flaky_server(self, model, graph, clock, **overrides):
        plan = FaultPlan(FaultSpec(fail_rate=1.0), seed=0)
        defaults = dict(
            num_shards=1,
            num_replicas=2,
            fault_plan=plan,
            max_retries=8,
            retry_backoff=0.001,
            health_failure_threshold=100,  # breakers stay closed: pure retry storm
        )
        defaults.update(overrides)
        return _server(model, graph, clock=clock, **defaults)

    def test_budget_caps_total_retries_exactly(self, small_graph):
        model = _model(small_graph)
        clock = ManualClock()
        server = self._flaky_server(
            model, small_graph, clock, retry_budget=3, retry_budget_refill=0.0
        )
        server.scheduler.flush_on_submit = False
        requests = server.submit_many(range(24))
        server.drain()
        stats = server.stats()
        assert stats.retry_budget_capacity == 3
        assert stats.retry_budget_spent == 3       # the exact ceiling
        assert stats.retry_attempts == 3
        assert stats.retry_budget_exhausted > 0    # later failures were denied
        assert stats.retry_budget_tokens == 0.0
        assert all(request.status == "failed" for request in requests)
        assert "retry budget: 3/3 tokens spent" in stats.render()

    def test_unbudgeted_baseline_retries_far_more(self, small_graph):
        model = _model(small_graph)
        clock = ManualClock()
        server = self._flaky_server(model, small_graph, clock)
        server.scheduler.flush_on_submit = False
        server.submit_many(range(24))
        server.drain()
        stats = server.stats()
        assert stats.retry_budget_capacity is None
        assert stats.retry_attempts > 3            # the storm the budget prevents
        assert stats.retry_budget_exhausted == 0

    def test_exhausted_budget_degrades_to_stale_ok(self, small_graph):
        # Warm the caches fault-free, then enter a total-failure window with
        # an empty budget: batches degrade immediately and resident rows come
        # back stale instead of burning retries.
        model = _model(small_graph)
        reference = model.full_forward(small_graph).data.argmax(axis=-1)
        clock = ManualClock()
        plan = FaultPlan(FaultSpec(fail_rate=1.0, after=1.0), seed=0)
        server = _server(
            model,
            small_graph,
            clock=clock,
            num_shards=1,
            num_replicas=2,
            fault_plan=plan,
            max_retries=8,
            health_failure_threshold=100,
            retry_budget=0,
            retry_budget_refill=0.0,
            degraded_policy="stale_ok",
        )
        warm = list(range(16))
        assert np.array_equal(server.predict(warm), reference[warm])
        clock.advance(2.0)
        server.scheduler.flush_on_submit = False
        requests = server.submit_many(warm[:6])
        server.drain()
        assert all(request.completed and request.stale for request in requests)
        for request in requests:
            assert request.prediction == reference[request.node]
        stats = server.stats()
        assert stats.retry_budget_spent == 0
        assert stats.retry_budget_exhausted > 0
        assert stats.degraded_requests == 6


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
