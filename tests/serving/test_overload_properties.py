"""Property test: admission control never silently drops a request.

Under any interleaving of submissions, clock advances, polls, drains and any
overload policy / queue depth / deadline configuration, every submitted
request must terminate in *exactly one* of the four terminal states —
``completed``, ``rejected``, ``shed`` or ``expired`` — and the server's
counters must account for all of them.  Completed answers must still match
offline full-graph inference bitwise.

The runs execute with ``telemetry="trace"``, which adds the tracing leg of
the invariant: every terminal request owns exactly one closed root span (and
no span stays open once the server shuts down).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import CompressionConfig
from repro.graph.datasets import synthetic_graph
from repro.models import create_model
from repro.serving import (
    TERMINAL_STATUSES,
    FaultPlan,
    FaultSpec,
    InferenceServer,
    ManualClock,
    ServingConfig,
)

GRAPH = synthetic_graph(
    num_nodes=48, num_edges=180, num_features=8, num_classes=3, seed=11, name="overload-graph"
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
    num_shards=st.integers(1, 3),
    max_batch_size=st.integers(1, 4),
    max_queue_depth=st.one_of(st.none(), st.integers(1, 3)),
    overload_policy=st.sampled_from(["reject", "shed_oldest", "block"]),
    default_timeout=st.one_of(st.none(), st.floats(0.05, 0.5)),
    flush_on_submit=st.booleans(),
)
def test_every_request_terminates_exactly_once(
    operations,
    num_shards,
    max_batch_size,
    max_queue_depth,
    overload_policy,
    default_timeout,
    flush_on_submit,
):
    clock = ManualClock()
    server = InferenceServer(
        MODEL,
        GRAPH,
        ServingConfig(
            num_shards=num_shards,
            max_batch_size=max_batch_size,
            max_delay=0.2,
            cache_capacity=64,
            max_queue_depth=max_queue_depth,
            overload_policy=overload_policy,
            default_timeout=default_timeout,
            telemetry="trace",
            trace_capacity=256,
            seed=0,
        ),
        clock=clock,
    )
    server.scheduler.flush_on_submit = flush_on_submit

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

    # Exactly-once termination: each request is in one terminal state ...
    assert all(request.status in TERMINAL_STATUSES for request in requests)
    assert all(request.done for request in requests)
    # ... only completed ones carry a prediction, and it is the exact answer.
    for request in requests:
        if request.status == "completed":
            assert request.prediction == REFERENCE[request.node]
            assert request.completion_time is not None
        else:
            assert request.prediction is None

    # The stats ledger balances: nothing dropped, nothing double-counted.
    stats = server.stats()
    assert stats.submitted_requests == len(requests)
    assert stats.completed_requests == sum(r.status == "completed" for r in requests)
    assert stats.rejected_requests == sum(r.status == "rejected" for r in requests)
    assert stats.shed_requests == sum(r.status == "shed" for r in requests)
    assert stats.expired_requests == sum(r.status == "expired" for r in requests)
    assert server.batcher.pending == 0

    # The tracing leg: every terminal request has exactly one closed root
    # span, with the request's terminal status — and nothing stays open.
    assert server.tracer.active_count == 0
    assert server.tracer.dropped_traces == 0
    spans = server.tracer.finished()
    by_request = {}
    for span in spans:
        assert span["request_id"] not in by_request, "duplicate root span"
        assert span["end"] is not None and span["status"] in TERMINAL_STATUSES
        by_request[span["request_id"]] = span
    assert len(by_request) == len(requests)
    for request in requests:
        assert by_request[request.request_id]["status"] == request.status


# -- the ledger with the self-healing layer armed -------------------------------
#
# Everything armed at once: permanent ``die`` faults and replica rebuilds
# (fired mid-run from the scheduler tick).  Neither may
# bend the exactly-once ledger or the bitwise-exactness of completed answers.


@settings(max_examples=30, deadline=None)
@given(
    operations=_operations(),
    fail_rate=st.floats(0.0, 0.4),
    die_rate=st.floats(0.0, 0.3),
    fault_seed=st.integers(0, 5),
    max_retries=st.integers(0, 2),
)
def test_ledger_holds_with_supervisor_and_die_faults(
    operations,
    fail_rate,
    die_rate,
    fault_seed,
    max_retries,
):
    plan = FaultPlan(FaultSpec(fail_rate=fail_rate, die_rate=die_rate), seed=fault_seed)
    clock = ManualClock()
    server = InferenceServer(
        MODEL,
        GRAPH,
        ServingConfig(
            num_shards=2,
            num_replicas=2,  # failover needs a sibling to retry on
            max_batch_size=4,
            max_delay=0.2,
            cache_capacity=64,
            fault_plan=plan,
            max_retries=max_retries,
            health_failure_threshold=1,
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

    # Exactly-once termination, bitwise-exact completions — restarts
    # included.
    assert all(request.status in TERMINAL_STATUSES for request in requests)
    assert all(request.done for request in requests)
    for request in requests:
        if request.status == "completed":
            assert request.prediction == REFERENCE[request.node]
        else:
            assert request.prediction is None

    stats = server.stats()
    assert stats.submitted_requests == len(requests)
    assert stats.completed_requests == sum(r.status == "completed" for r in requests)
    assert stats.failed_requests == sum(r.status == "failed" for r in requests)
    assert stats.expired_requests == sum(r.status == "expired" for r in requests)
    assert server.batcher.pending == 0

    # The dispatch pool never holds a corpse: every replica the server could
    # still dispatch to is live (rebuilds swapped retired workers out), and
    # each rebuild left one event in the heal log.
    assert all(not worker.retired for worker in server.workers)
    assert stats.supervisor_restarts == len(server.replicas.event_log())


# -- the ledger under process-kill faults ---------------------------------------
#
# PR 10 adds ``kill_rate``: a real SIGKILL to the worker pid when replicas
# are processes, degrading to ``die`` semantics in-process — which is what
# lets hypothesis explore kill schedules without paying a spawn per example.
# Either way a fired kill is permanent until a replica rebuild, and the
# exactly-once ledger (``submitted = completed + rejected + shed + expired +
# failed``) must balance with bitwise-equal completions.


@settings(max_examples=25, deadline=None)
@given(
    operations=_operations(),
    kill_rate=st.floats(0.05, 0.4),
    fail_rate=st.floats(0.0, 0.2),
    fault_seed=st.integers(0, 5),
    max_retries=st.integers(0, 2),
)
def test_ledger_holds_with_kill_faults_mid_flush(
    operations,
    kill_rate,
    fail_rate,
    fault_seed,
    max_retries,
):
    plan = FaultPlan(
        FaultSpec(kill_rate=kill_rate, fail_rate=fail_rate),
        seed=fault_seed,
    )
    clock = ManualClock()
    server = InferenceServer(
        MODEL,
        GRAPH,
        ServingConfig(
            num_shards=2,
            num_replicas=2,
            max_batch_size=4,
            max_delay=0.2,
            cache_capacity=64,
            fault_plan=plan,
            max_retries=max_retries,
            health_failure_threshold=1,
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
    server.shutdown()

    assert all(request.status in TERMINAL_STATUSES for request in requests)
    assert all(request.done for request in requests)
    for request in requests:
        if request.status == "completed":
            assert request.prediction == REFERENCE[request.node]
        else:
            assert request.prediction is None

    stats = server.stats()
    assert stats.submitted_requests == len(requests)
    terminal_sum = (
        stats.completed_requests
        + stats.rejected_requests
        + stats.shed_requests
        + stats.expired_requests
        + stats.failed_requests
    )
    assert terminal_sum == len(requests)
    assert server.batcher.pending == 0
    # Fired kills are permanent until healed: no corpse may remain in the
    # dispatch pool after the final ticks.
    assert all(not worker.retired for worker in server.workers)
    if plan.injected["kill"]:
        assert stats.supervisor_restarts >= 0  # rebuilds recorded, never negative
        assert stats.worker_failures > 0


# -- three request classes under overload ---------------------------------------
#
# PR 8 extends the ledger invariant across weighted admission classes: per
# class, ``submitted = completed + rejected + shed + expired + failed``, and
# the shed victim is always optimal — minimum weight first, oldest within the
# weight — so a premium request is never shed while a backfill (or standard)
# request with no more deadline slack is still queued.  Every burst shares
# one enqueue time and one default timeout, so slack is equal across classes
# within a burst and the victim choice is decided by weight alone.

_CLASS_NAMES = ("premium", "standard", "backfill")


def _bursts():
    return st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(_CLASS_NAMES),
                st.integers(0, GRAPH.num_nodes - 1),
            ),
            min_size=1,
            max_size=8,  # vs max_queue_depth=2 and batch 2: >= 2x overload
        ),
        min_size=1,
        max_size=6,
    )


@settings(max_examples=30, deadline=None)
@given(
    bursts=_bursts(),
    num_shards=st.integers(1, 2),
)
def test_three_class_ledger_balances_under_overload(bursts, num_shards):
    clock = ManualClock()
    server = InferenceServer(
        MODEL,
        GRAPH,
        ServingConfig(
            num_shards=num_shards,
            max_batch_size=2,
            max_delay=0.2,
            cache_capacity=64,
            max_queue_depth=2,
            overload_policy="shed_oldest",
            default_timeout=0.5,
            flush_on_submit=False,
            seed=0,
        ),
        clock=clock,
    )

    # Spy on every shed decision: the victim must be minimum-weight, and the
    # oldest request within that weight.  Victim optimality at each decision
    # point is exactly the "no premium shed while an equally-slack backfill
    # survives" guarantee, checked at the moment it could be violated.
    original_shed = server.batcher.shed_victim

    def optimal_shed(shard_id):
        queue = list(server.batcher._queues[shard_id])
        victim = original_shed(shard_id)
        min_weight = min(request.weight for request in queue)
        assert victim.weight == min_weight
        peers = [request for request in queue if request.weight == victim.weight]
        assert victim.enqueue_time == min(request.enqueue_time for request in peers)
        return victim

    server.batcher.shed_victim = optimal_shed

    handles = []
    for burst in bursts:
        for request_class, node in burst:
            handles.append(server.submit(node, request_class=request_class))
        clock.advance(0.25)
        server.poll()
    server.shutdown()

    # Exactly-once termination and bitwise-exact completions, as before.
    assert all(handle.status in TERMINAL_STATUSES for handle in handles)
    for handle in handles:
        if handle.completed:
            assert handle.result() == REFERENCE[handle.node]
        else:
            assert handle.prediction is None
    assert server.batcher.pending == 0

    # The per-class ledger balances against the per-handle ground truth.
    stats = server.stats()
    assert stats.submitted_requests == len(handles)
    for name in _CLASS_NAMES:
        group = [handle for handle in handles if handle.request_class == name]
        ledger = stats.class_requests[name]
        assert sum(ledger.values()) == len(group)
        for status in TERMINAL_STATUSES:
            assert ledger[status] == sum(handle.status == status for handle in group)
