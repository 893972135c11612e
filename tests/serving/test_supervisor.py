"""Self-healing serving: the replica state machine, rebuilds, hang failover.

The contract under test:

* a ``die`` fault is permanent — the corpse fails every later dispatch —
  until :meth:`FaultPlan.revive` (a replica rebuild) clears it;
* a :class:`ReplicaSet` keeps each replica ``healthy``, ``suspect`` (fewer
  than ``failure_threshold`` consecutive failures, still dispatched) or
  ``dead`` (never dispatched); dispatch is round-robin over the live ones,
  skipping replicas already tried for the batch;
* the tick, driven from the scheduler, rebuilds every dead replica: fresh
  worker, bumped epoch, nothing copied; in-flight attempts against the
  retired corpse fail cleanly, and each heal logs one event;
* ``restart_replica`` gives operators the same rebuild, draining in-flight
  batches first, and the replacement's first pass over nodes already served
  reads the shared store: exact, all hits, no plan built;
* a replica that hangs on every dispatch fails over to its sibling with
  predictions still exact;
* ``drain(timeout=)`` raises :class:`DrainTimeout` with a ledger snapshot
  and leaves the server usable.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.serving
from repro.compression import CompressionConfig
from repro.models import create_model
from repro.serving import (
    DrainTimeout,
    FaultPlan,
    FaultSpec,
    InferenceRequest,
    InferenceServer,
    ManualClock,
    ProcessWorkerHandle,
    ReplicaDead,
    ReplicaSet,
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


class _FakeWorker:
    """The slice of the worker surface a :class:`ReplicaSet` touches."""

    def __init__(self, shard_id, worker_id, epoch, log):
        self.shard_id = shard_id
        self.worker_id = worker_id
        self.epoch = epoch
        self.retired = False
        self._log = log
        log.append(("build", worker_id, epoch))

    def retire(self):
        self.retired = True
        self._log.append(("retire", self.worker_id, self.epoch))


class _Recorder:
    """Halo store and fault plan stand-in: logs the rebuild steps it sees."""

    def __init__(self, log):
        self._log = log

    def bump_epoch(self):
        self._log.append(("bump_epoch",))

    def revive(self, worker_id):
        self._log.append(("revive", worker_id))


def _replica_set(num_shards=1, num_replicas=2, log=None, **overrides):
    log = [] if log is None else log
    recorder = _Recorder(log)
    defaults = dict(failure_threshold=3, halo_store=recorder, faults=recorder)
    defaults.update(overrides)
    return ReplicaSet(
        lambda shard_id, worker_id, epoch: _FakeWorker(shard_id, worker_id, epoch, log),
        num_shards,
        num_replicas,
        **defaults,
    )


class TestReplicaStateMachine:
    def test_starts_healthy_and_dispatchable(self):
        replicas = _replica_set()
        assert [replicas.state(i) for i in range(2)] == ["healthy", "healthy"]
        assert replicas.pick(0) is replicas.workers[0]
        assert [w.shard_id for w in replicas.workers] == [0, 0]

    def test_dies_after_consecutive_failures(self):
        replicas = _replica_set(failure_threshold=3)
        worker = replicas.workers[0]
        for _ in range(2):
            replicas.record_failure(worker)
        assert replicas.state(0) == "suspect"  # threshold not reached
        replicas.record_failure(worker)
        assert replicas.state(0) == "dead"
        # The sibling is unaffected.
        assert replicas.state(1) == "healthy"

    def test_suspect_replica_is_still_dispatched(self):
        replicas = _replica_set(failure_threshold=3)
        replicas.record_failure(replicas.workers[0])
        assert replicas.state(0) == "suspect"
        picked = {replicas.pick(0).worker_id for _ in range(4)}
        assert picked == {0, 1}

    def test_success_resets_a_suspect(self):
        replicas = _replica_set(failure_threshold=2)
        worker = replicas.workers[0]
        replicas.record_failure(worker)
        replicas.record_success(worker)
        assert replicas.state(0) == "healthy"
        replicas.record_failure(worker)
        assert replicas.state(0) == "suspect"  # 1 + reset + 1, never 2

    def test_dead_replicas_are_never_dispatched(self):
        replicas = _replica_set(failure_threshold=1)
        corpse = replicas.workers[0]
        replicas.record_failure(corpse)
        assert {replicas.pick(0).worker_id for _ in range(6)} == {1}
        # Even when the only live sibling was already tried for the batch.
        assert replicas.pick(0, exclude={1}).worker_id == 1
        # Late signals from in-flight attempts against the corpse are counted
        # but never change its state: only a rebuild resurrects the slot.
        replicas.record_success(corpse)
        assert replicas.state(0) == "dead"
        replicas.record_failure(corpse)
        assert replicas.state(0) == "dead"
        assert replicas.failures[0] == 2 and replicas.deaths[0] == 1

    def test_pick_returns_none_when_every_replica_is_dead(self):
        replicas = _replica_set(failure_threshold=1)
        for worker in list(replicas.workers):
            replicas.record_failure(worker)
        assert replicas.pick(0) is None
        assert replicas.pick(0, exclude={0, 1}) is None

    def test_round_robin_skips_tried_replicas_while_an_untried_one_exists(self):
        replicas = _replica_set(num_replicas=3)
        assert [replicas.pick(0).worker_id for _ in range(4)] == [0, 1, 2, 0]
        assert {replicas.pick(0, exclude={0, 1}).worker_id for _ in range(3)} == {2}
        # Every replica tried: fall back to the whole dispatchable pool.
        assert replicas.pick(0, exclude={0, 1, 2}) is not None

    def test_lone_replica_retries_in_place(self):
        replicas = _replica_set(num_replicas=1)
        worker = replicas.workers[0]
        replicas.record_failure(worker)
        assert replicas.pick(0, exclude={0}) is worker

    def test_shards_own_contiguous_worker_ids(self):
        replicas = _replica_set(num_shards=3, num_replicas=2, failure_threshold=1)
        assert [w.worker_id for w in replicas.group(1)] == [2, 3]
        assert [w.shard_id for w in replicas.workers] == [0, 0, 1, 1, 2, 2]
        replicas.record_failure(replicas.workers[2])
        assert replicas.pick(1).worker_id == 3
        assert replicas.pick(0).worker_id in (0, 1)  # other shards unaffected

    def test_deaths_counter_counts_deaths(self):
        replicas = _replica_set(failure_threshold=1)
        replicas.record_failure(replicas.workers[0])
        assert replicas.tick(now=1.0) == 1
        replicas.record_failure(replicas.workers[0])
        assert replicas.deaths[0] == 2
        assert replicas.failures[0] == 2  # counters survive the rebuild

    def test_rebuild_runs_its_steps_in_order(self):
        log = []
        wired = []
        replicas = _replica_set(log=log, failure_threshold=1, wire=wired.append)
        assert [w.worker_id for w in wired] == [0, 1]  # initial build is wired
        log.clear()
        corpse = replicas.workers[1]
        replicas.record_failure(corpse)
        assert replicas.tick(now=2.5) == 1
        assert log == [
            ("retire", 1, 0),
            ("bump_epoch",),
            ("build", 1, 1),
            ("revive", 1),
        ]
        fresh = replicas.workers[1]
        assert wired[-1] is fresh and fresh is not corpse and corpse.retired
        assert replicas.state(1) == "healthy"
        assert replicas.restarts == 1
        assert replicas.event_log() == [
            {
                "time": 2.5,
                "event": "rebuild",
                "shard": 0,
                "replica": 1,
                "worker": 1,
                "epoch": 1,
                "reason": "1 consecutive failures",
            }
        ]

    def test_rebuilt_slot_starts_healthy_and_ignores_its_corpse(self):
        replicas = _replica_set(failure_threshold=2)
        corpse = replicas.workers[0]
        replicas.record_failure(corpse)
        replicas.record_failure(corpse)
        replicas.tick(now=0.0)
        assert replicas.state(0) == "healthy"
        # A late failure from the retired corpse is not charged to the new
        # incarnation's consecutive count.
        replicas.record_failure(corpse)
        assert replicas.state(0) == "healthy"
        replicas.record_failure(replicas.workers[0])
        assert replicas.state(0) == "suspect"

    def test_tick_skips_held_slots_until_restart(self):
        replicas = _replica_set(failure_threshold=1)
        held = replicas.hold(0, 0)
        assert replicas.state(0) == "dead"
        assert replicas.pick(0).worker_id == 1
        replicas.record_failure(replicas.workers[1])
        assert replicas.tick(now=0.0) == 1  # only the unheld death
        assert replicas.workers[0] is held
        fresh = replicas.restart(0, 0, now=1.0)
        assert fresh is replicas.workers[0] and held.retired
        assert replicas.state(0) == "healthy"
        assert [e["event"] for e in replicas.event_log()] == ["rebuild", "restart"]
        assert replicas.last_event()["reason"] == "operator restart"

    def test_reset_counters_keeps_state(self):
        replicas = _replica_set(failure_threshold=2)
        suspect, doomed = replicas.workers
        replicas.record_failure(suspect)
        replicas.record_failure(doomed)
        replicas.record_failure(doomed)
        replicas.reset_counters()
        assert replicas.failures == [0, 0] and replicas.deaths == [0, 0]
        # State and consecutive counts are not counters: one more failure
        # still kills the suspect.
        assert [replicas.state(0), replicas.state(1)] == ["suspect", "dead"]
        replicas.record_failure(suspect)
        assert replicas.state(0) == "dead"
        assert replicas.tick(now=0.0) == 2
        replicas.reset_counters()
        assert replicas.restarts == 0
        assert replicas.event_log() == [] and replicas.last_event() is None

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            _replica_set(failure_threshold=0)
        with pytest.raises(ValueError):
            _replica_set(num_replicas=0)
        replicas = _replica_set()
        with pytest.raises(ValueError):
            replicas.hold(1, 0)
        with pytest.raises(ValueError):
            replicas.hold(0, 2)


class TestSupervisorRebuild:
    def test_dead_replica_is_rebuilt_by_the_next_tick(self, small_graph):
        # Default threshold and retry settings: three failed attempts kill
        # the single replica, and the tick at the end of that round rebuilds
        # it.
        model = _model(small_graph)
        clock = ManualClock()
        server = _server(
            model,
            small_graph,
            clock=clock,
            num_shards=1,
            num_replicas=1,
            fault_plan=FaultPlan(FaultSpec(die_rate=1.0), seed=0),
        )
        server.scheduler.flush_on_submit = False
        first = server.submit_many(range(4))
        server.drain()
        assert all(request.status == "failed" for request in first)
        assert server.stats().supervisor_restarts == 1
        assert server.workers[0].epoch == 1

    def test_death_triggers_one_rebuild_and_one_event(self, small_graph):
        # Single replica: die at t=0 kills it, the round-barrier tick
        # rebuilds it at once, and once the die window has passed the
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
            health_failure_threshold=1,
            max_retries=1,
        )
        server.scheduler.flush_on_submit = False

        first = server.submit_many(range(4))
        server.drain()
        assert all(request.status == "failed" for request in first)
        assert server.stats().supervisor_restarts == 1

        rebuilt = server.workers[0]
        assert rebuilt.epoch == 1
        assert not rebuilt.retired
        assert plan.dead_workers() == ()  # revive() ran
        assert server.replicas.state(0) == "healthy"

        clock.advance(0.6)  # past the die window: the replacement stays up
        second = server.submit_many(range(8, 16))
        server.drain()
        assert all(request.completed for request in second)
        for request in second:
            assert request.prediction == reference[request.node]
        assert server.stats().supervisor_restarts == 1  # healed once, stayed healed

        (event,) = server.replicas.event_log()
        assert event["event"] == "rebuild" and event["epoch"] == 1
        assert event["reason"] == "1 consecutive failures"
        render = server.stats().render()
        assert "self-healing: 1 replica rebuilds" in render
        assert "quarantined" not in render
        assert "epoch 1" in render

    def test_one_tick_rebuilds_every_dead_replica(self, small_graph):
        model = _model(small_graph)
        server = _server(
            model,
            small_graph,
            num_shards=1,
            num_replicas=2,
            fault_plan=FaultPlan(FaultSpec(die_rate=1.0, until=0.5), seed=0),
            health_failure_threshold=1,
        )
        server.scheduler.flush_on_submit = False
        requests = server.submit_many(range(4))
        server.drain()  # both replicas die in the same batch
        assert all(request.status == "failed" for request in requests)
        assert server.stats().supervisor_restarts == 2
        assert [worker.epoch for worker in server.workers] == [1, 1]
        assert [event["event"] for event in server.replicas.event_log()] == [
            "rebuild", "rebuild",
        ]

    def test_tick_is_idle_until_a_replica_dies(self, small_graph):
        model = _model(small_graph)
        server = _server(model, small_graph, num_shards=1, num_replicas=2)
        server.predict(range(16))
        assert server.supervise() == 0
        assert server.replicas.event_log() == []
        for _ in range(3):  # default threshold: three failures kill worker 0
            server.replicas.record_failure(server.workers[0])
        assert server.supervise() == 1
        # No replica died since: the next tick does nothing.
        assert server.supervise() == 0
        assert server.stats().supervisor_restarts == 1

    def test_held_replica_is_not_rebuilt_by_the_tick(self, small_graph):
        model = _model(small_graph)
        server = _server(
            model,
            small_graph,
            num_shards=1,
            num_replicas=2,
            health_failure_threshold=1,
        )
        server.replicas.record_failure(server.workers[0])
        server.replicas.record_failure(server.workers[1])
        server.replicas.hold(0, 1)
        assert server.supervise() == 1
        assert [worker.epoch for worker in server.workers] == [1, 0]
        assert server.replicas.state(1) == "dead"

    def test_retired_corpse_fails_cleanly(self, small_graph):
        model = _model(small_graph)
        server = _server(
            model, small_graph, num_shards=1, num_replicas=2, health_failure_threshold=1
        )
        corpse = server.workers[0]
        server.replicas.record_failure(corpse)
        server.supervise()
        with pytest.raises(WorkerRetired):
            corpse.predict(np.array([0], dtype=np.int64))
        # The swap is visible to dispatch: the slot holds the replacement.
        assert server.replicas.group(0)[0] is not corpse
        assert server.replicas.group(0)[0].epoch == corpse.epoch + 1
        assert server.workers[0] is server.replicas.group(0)[0]

    def test_restart_replica_drains_and_the_replacement_reads_the_store(
        self, small_graph, monkeypatch
    ):
        model = _model(small_graph)
        reference = model.full_forward(small_graph).data.argmax(axis=-1)
        server = _server(model, small_graph, num_shards=2, num_replicas=2)
        assert server.halo_store is not None
        nodes = np.arange(small_graph.num_nodes)
        assert np.array_equal(server.predict(nodes), reference)

        old = server.replicas.group(0)[0]
        replacement = server.restart_replica(0, 0)
        assert replacement is not old
        assert old.retired
        assert replacement.epoch == 1
        assert replacement.worker_id == old.worker_id
        assert server.stats().supervisor_restarts == 1
        assert server.replicas.last_event()["reason"] == "operator restart"
        # The replacement's first pass over nodes already served is exact,
        # counts only hits in its own lookups, and builds no plan.
        plans = []
        build = repro.serving.worker.Restriction
        monkeypatch.setattr(
            repro.serving.worker, "Restriction", lambda *args: plans.append(args) or build(*args)
        )
        served = replacement.shard.core_nodes
        assert np.array_equal(replacement.predict(served), reference[served])
        assert replacement.cache_stats.misses == 0 < replacement.cache_stats.hits
        assert plans == [] and replacement.timings.totals["plan_build"] == 0.0
        # The rebuilt fleet still serves bitwise-exact answers.
        assert np.array_equal(server.predict(nodes), reference)

    def test_restart_replica_validates_indices(self, small_graph):
        model = _model(small_graph)
        server = _server(model, small_graph, num_shards=1, num_replicas=1)
        with pytest.raises(ValueError):
            server.restart_replica(5, 0)
        with pytest.raises(ValueError):
            server.restart_replica(0, 3)

    def test_reset_stats_zeroes_per_replica_failures(self, small_graph):
        model = _model(small_graph)
        plan = FaultPlan(FaultSpec(workers=(0,), fail_rate=1.0), seed=0)
        server = _server(
            model, small_graph, num_shards=1, num_replicas=2, fault_plan=plan
        )
        server.predict(range(16))
        assert sum(worker.failures for worker in server.stats().workers) == 1
        server.reset_stats()
        stats = server.stats()
        assert stats.worker_failures == 0
        assert [worker.failures for worker in stats.workers] == [0, 0]
        # The replica's state is not a counter: worker 0 stays suspect.
        assert [worker.state for worker in stats.workers] == ["suspect", "healthy"]

    def test_exported_counts_equal_their_owners_across_a_reset(self, small_graph):
        # Each count has one home (engine, batcher, scheduler, replica set,
        # fault plan) and the export copies it.  After a faulty window, a
        # reset and a second faulty window, every counter family's total is
        # its owner's count, and a telemetry="off" twin keeps the same ledger.
        model = _model(small_graph)
        servers = {}
        for mode in ("metrics", "off"):
            plan = FaultPlan(FaultSpec(fail_rate=0.2, hang_rate=0.05, die_rate=0.05), seed=4)
            server = _server(
                model,
                small_graph,
                num_replicas=2,
                fault_plan=plan,
                health_failure_threshold=2,
                telemetry=mode,
            )
            rng = np.random.default_rng(2)
            for request_class in ("standard", "premium"):
                server.submit_many(
                    rng.choice(small_graph.num_nodes, size=60), request_class=request_class
                )
                server.drain()
                if request_class == "standard":
                    server.reset_stats()
            servers[mode] = server
        server = servers["metrics"]
        stats = server.stats()
        assert stats.worker_failures > 0 and stats.supervisor_restarts > 0  # not vacuous
        assert stats.injected_faults == stats.worker_failures  # every fault failed a dispatch
        snapshot = server.telemetry.snapshot()
        owners = {
            "serving_requests_total": stats.submitted_requests,
            "serving_class_requests_total": sum(
                sum(counts.values()) for counts in stats.class_requests.values()
            ),
            "serving_flushes_total": stats.size_flushes + stats.delay_flushes
            + stats.forced_flushes,
            "serving_retries_total": stats.retried_requests,
            "serving_failovers_total": stats.failovers,
            "serving_retry_attempts_total": stats.retry_attempts,
            "serving_supervisor_restarts_total": stats.supervisor_restarts,
            "serving_replica_failures_total": stats.worker_failures,
            "serving_replica_deaths_total": sum(load.deaths for load in stats.workers),
            "serving_faults_injected_total": server.faults.total_injected,
            "serving_worker_failures_total": sum(server.replicas.failures),
            "serving_flush_rounds_total": server.scheduler.rounds,
        }
        totals = {
            name: sum(sample["value"] for sample in snapshot[name]["samples"])
            for name in owners
        }
        assert totals == owners
        per_replica = {
            sample["labels"][0]: sample["value"]
            for sample in snapshot["serving_replica_failures_total"]["samples"]
        }
        assert per_replica == {str(i): n for i, n in enumerate(server.replicas.failures)}

        off = servers["off"].stats()
        for field in (
            "completed_requests", "rejected_requests", "shed_requests",
            "expired_requests", "failed_requests", "retried_requests", "failovers",
            "worker_failures", "injected_faults", "class_requests",
            "supervisor_restarts", "retry_attempts", "size_flushes",
            "delay_flushes", "forced_flushes",
        ):
            assert getattr(off, field) == getattr(stats, field), field


class TestDeletedResilienceKnobs:
    def test_deleted_constructor_arguments_raise(self):
        with pytest.raises(TypeError):
            FaultSpec(slow_rate=0.1)
        for argument in ("cooldown", "latency_threshold", "failure_budget"):
            with pytest.raises(TypeError):
                _replica_set(**{argument: 1})
        for name in ("HealthTracker", "ReplicaHealth", "ReplicaSupervisor"):
            assert not hasattr(repro.serving, name)

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
