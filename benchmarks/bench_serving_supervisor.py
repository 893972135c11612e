"""Self-healing serving benchmark with a gate (replica rebuild).

Gate on the synthetic Reddit-like graph served by a 4-shard x 2-replica
server, exercising the self-healing layer end to end.

**Replica rebuild + steady-state floor** (``steady_state_ratio``): a
``kind="die"`` :class:`~repro.serving.FaultPlan` permanently kills one of
the two replicas of every shard during a chaos pass.  The
:class:`~repro.serving.ReplicaSet` must mark each corpse dead and rebuild it
mid-stream (fresh worker reading the shared store, new epoch), no
request may be lost (the ledger balances to the submission count, every
request completes) and every prediction stays bitwise equal to offline
inference.  A second, timed pass after the fault window closes — all
replicas healed — must reach >= ``STEADY_FLOOR`` x the throughput of a
fault-free server running the identical two-pass schedule.

All runs use a ``ManualClock``: injected faults advance simulated time only,
so the steady-state ratio is computed over **CPU time**
(``time.process_time``), best-of interleaved repeats.  ``BLOCKGNN_QUICK=1``
shrinks the graph and streams for CI; ``BLOCKGNN_CHAOS_SEED`` re-seeds the
plan for the chaos-smoke job without touching the gate's fixed seed.  The
gate additionally dumps the heal event log to
``results/supervisor_events.json`` as a CI artifact.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.graph import load_dataset
from repro.models import Trainer, TrainingConfig, create_model
from repro.serving import FaultPlan, FaultSpec, InferenceServer, ManualClock, ServingConfig

QUICK = os.environ.get("BLOCKGNN_QUICK", "0") == "1"

SCALE = 0.0015 if QUICK else 0.006
HIDDEN = 32 if QUICK else 64
NUM_SHARDS = 4
NUM_REPLICAS = 2
BATCH_SIZE = 32
REPEATS = 3 if QUICK else 5
STREAM = 4 if QUICK else 8  # batches per shard per pass

CHAOS_SEED = int(os.environ.get("BLOCKGNN_CHAOS_SEED", "1337"))

#: Worker ids of the first replica of every shard (workers are laid out
#: shard-major: shard s owns ids [s*R, s*R+R)) — the "1 of 2 replicas per
#: shard" victims of the die plan.
FIRST_REPLICAS = tuple(range(0, NUM_SHARDS * NUM_REPLICAS, NUM_REPLICAS))

#: Die-window end (simulated seconds): deaths only fire before this instant,
#: so replicas rebuilt after the window stay alive for the steady-state pass.
DIE_UNTIL = 0.5

#: Steady-state throughput floor of the healed server vs fault-free.
STEADY_FLOOR = 0.9


@pytest.fixture(scope="module")
def served_setup():
    """A trained GCN on the Reddit-like graph plus its offline reference."""
    graph = load_dataset("reddit", scale=SCALE, seed=0, num_features=HIDDEN)
    model = create_model(
        "GCN",
        in_features=graph.num_features,
        hidden_features=HIDDEN,
        num_classes=graph.num_classes,
        seed=0,
    )
    Trainer(model, graph, TrainingConfig(epochs=1, fanouts=(10, 5), seed=0)).fit()
    model.eval()
    reference = model.full_forward(graph).data.argmax(axis=-1)
    return graph, model, reference


def _server(model, graph, fault_plan=None, **overrides):
    defaults = dict(
        num_shards=NUM_SHARDS,
        num_replicas=NUM_REPLICAS,
        max_batch_size=BATCH_SIZE,
        max_delay=0.002,
        cache_capacity=65536,
        fault_plan=fault_plan,
        max_retries=2,
        seed=0,
    )
    defaults.update(overrides)
    return InferenceServer(model, graph, ServingConfig(**defaults), clock=ManualClock())


def _stream(graph, seed=1):
    size = STREAM * BATCH_SIZE * NUM_SHARDS
    return np.random.default_rng(seed).choice(graph.num_nodes, size=size, replace=True)


def _assert_ledger_balances(requests, stats, reference):
    """Exactly-once termination + bitwise-exact completions (zero lost)."""
    assert all(request.done for request in requests)
    assert stats.submitted_requests == len(requests)
    terminal = (
        stats.completed_requests
        + stats.failed_requests
        + stats.rejected_requests
        + stats.shed_requests
        + stats.expired_requests
    )
    assert terminal == len(requests)
    for request in requests:
        if request.completed:
            assert request.prediction == reference[request.node]


def _two_pass(model, graph, fault_plan, **overrides):
    """Chaos pass, close the fault window, then a timed steady-state pass.

    Returns (cpu_seconds_of_pass2, pass1_requests, pass2_requests, server).
    The caller shuts the server down (the gate reads the heal log first).
    """
    server = _server(model, graph, fault_plan=fault_plan, **overrides)
    pass1 = server.submit_many(_stream(graph))
    server.drain()
    server.clock.advance(2 * DIE_UNTIL)  # every fault window is over
    nodes = _stream(graph, seed=2)
    start = time.process_time()
    pass2 = server.submit_many(nodes)
    server.drain()
    seconds = time.process_time() - start
    return seconds, pass1, pass2, server


def test_supervisor_rebuild_steady_state_gate(served_setup, save_result, results_dir):
    """Die plan kills 1 of 2 replicas per shard; the replica set rebuilds
    them and the healed server's throughput floor holds."""
    graph, model, reference = served_setup

    def die_plan():
        return FaultPlan(
            FaultSpec(workers=FIRST_REPLICAS, die_rate=1.0, until=DIE_UNTIL),
            seed=CHAOS_SEED,
        )

    healing = dict(health_failure_threshold=1)
    _two_pass(model, graph, None)[3].shutdown()  # warm numpy/scipy paths once

    best = {"fault_free": float("inf"), "die": float("inf")}
    last = {}
    for _ in range(REPEATS):
        seconds, p1, p2, server = _two_pass(model, graph, None)
        best["fault_free"] = min(best["fault_free"], seconds)
        stats = server.stats()
        server.shutdown()
        last["fault_free"] = (p1, p2, stats, None)

        seconds, p1, p2, server = _two_pass(model, graph, die_plan(), **healing)
        best["die"] = min(best["die"], seconds)
        stats = server.stats()
        events = server.replicas.event_log()
        # Every replica the server can still dispatch to is live, and the
        # plan's corpse set was emptied by the rebuilds.
        assert not server.faults.dead_workers()
        assert all(not w.retired for w in server.workers)
        server.shutdown()
        last["die"] = (p1, p2, stats, events)

    p1, p2, stats, events = last["die"]
    # The server really healed: one rebuild per shard at minimum (round-
    # robin dispatch sends every shard's first batch to its doomed replica),
    # and one rebuild event per heal.
    assert stats.supervisor_restarts >= NUM_SHARDS
    assert [e["event"] for e in events] == ["rebuild"] * stats.supervisor_restarts
    assert {e["worker"] for e in events} >= set(FIRST_REPLICAS)
    # Zero lost requests across both passes; every completion exact.  The
    # chaos pass keeps a live sibling per shard, so nothing even fails.
    _assert_ledger_balances(p1 + p2, stats, reference)  # stats span both passes
    assert all(request.completed for request in p1 + p2)
    for request in p1 + p2:
        assert request.prediction == reference[request.node]

    total = len(_stream(graph))
    rates = {name: total / seconds for name, seconds in best.items()}
    steady_state_ratio = rates["die"] / rates["fault_free"]

    log_path = results_dir / "supervisor_events.json"
    log_path.write_text(json.dumps(events, indent=2) + "\n")

    save_result(
        "serving_supervisor",
        f"self-healing under a die plan (CPU time, best of {REPEATS}), GCN, "
        f"{NUM_SHARDS} shards x {NUM_REPLICAS} replicas, batch {BATCH_SIZE}, "
        f"{total} requests/pass on {graph.summary()}\n"
        f"  fault-free steady state : {best['fault_free'] * 1e3:8.1f} ms "
        f"({rates['fault_free']:7.0f} req/s)\n"
        f"  healed steady state     : {best['die'] * 1e3:8.1f} ms "
        f"({rates['die']:7.0f} req/s, ratio {steady_state_ratio:.2f}, "
        f"floor {STEADY_FLOOR:.1f})\n"
        f"  healing                 : {stats.supervisor_restarts} rebuilds, "
        f"event log -> {log_path.name}",
        steady_state_ratio=steady_state_ratio,
        supervisor_restarts=stats.supervisor_restarts,
        healed_req_per_s=rates["die"],
        fault_free_req_per_s=rates["fault_free"],
    )
    assert steady_state_ratio >= STEADY_FLOOR, (
        f"healed server reaches only {steady_state_ratio:.2f}x fault-free "
        f"steady-state throughput (floor {STEADY_FLOOR}x)"
    )

