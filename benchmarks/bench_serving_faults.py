"""Fault-tolerant serving benchmarks with gates (chaos under measurement).

Gates on the synthetic Reddit-like graph served by a 4-shard x 2-replica
server with the concurrent executor:

1. **Exactness under faults + no lost requests** (always asserted): with a
   10% per-dispatch replica-failure :class:`~repro.serving.FaultPlan`, every
   submitted request reaches exactly one terminal state (the stats ledger
   balances to the submission count), and every *completed* prediction is
   bitwise equal to offline full-graph inference.  Failover must actually
   fire — the plan's injection counters are asserted non-zero.
2. **Failover throughput floor** (``throughput_ratio``): end-to-end
   throughput under the 10% failure plan >= ``FAILOVER_FLOOR`` x the
   fault-free run of the same stream.  Retries re-do ~10% of the batch work,
   and replicas that reach the failure threshold are rebuilt (the count is
   printed); losing more than that means the retry loop or the rebuild path
   is doing something quadratic.
3. **Idle-machinery overhead** (``idle_ratio``): a server carrying a
   zero-rate fault plan (decide() consulted on every dispatch, nothing ever
   injected) stays within ``IDLE_FLOOR`` x the throughput of a server with
   no plan at all — the fault path must cost ~nothing when faults are off,
   so fault-free serving pays nothing for the resilience layer.

All runs use a ``ManualClock``: injected hangs advance simulated time only,
so the ratios measure real work (recompute, dispatch, bookkeeping), not
sleeping.  The ratios are computed over **CPU time**
(``time.process_time``, summed across executor threads), best-of
interleaved repeats: the retry/failover contract is about work
amplification, and CPU time keeps the gate meaningful on throttled or
noisy-neighbour CI runners where wall-clock of a ~30 ms pass can swing 5x.
``BLOCKGNN_QUICK=1`` shrinks the graph and streams for CI;
``BLOCKGNN_CHAOS_SEED`` re-seeds the plan for the chaos-smoke job without
touching the gates' fixed seed.
"""

from __future__ import annotations

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

FAIL_RATE = 0.10
CHAOS_SEED = int(os.environ.get("BLOCKGNN_CHAOS_SEED", "1337"))

#: Throughput floor under the 10% replica-failure plan, vs fault-free.
FAILOVER_FLOOR = 0.6
#: Throughput floor of a zero-rate plan (machinery armed, nothing injected)
#: vs no plan at all.  Pure per-dispatch overhead; generous for CI noise.
IDLE_FLOOR = 0.5


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
        executor="concurrent",
        fault_plan=fault_plan,
        max_retries=2,
        seed=0,
    )
    defaults.update(overrides)
    return InferenceServer(model, graph, ServingConfig(**defaults), clock=ManualClock())


def _stream(graph, seed=1):
    size = STREAM * BATCH_SIZE * NUM_SHARDS
    return np.random.default_rng(seed).choice(graph.num_nodes, size=size, replace=True)


def _timed_pass(model, graph, fault_plan):
    """Fresh server, one cold end-to-end pass: (cpu_seconds, requests, stats)."""
    server = _server(model, graph, fault_plan=fault_plan)
    nodes = _stream(graph)
    start = time.process_time()
    requests = server.submit_many(nodes)
    server.drain()
    seconds = time.process_time() - start
    stats = server.stats()
    server.shutdown()
    return seconds, requests, stats


def test_faulty_predictions_exact_and_nothing_lost(served_setup):
    """Gate 1: 10% replica failures — ledger balances, answers stay exact."""
    graph, model, reference = served_setup
    plan = FaultPlan.replica_failures(FAIL_RATE, seed=CHAOS_SEED)
    _, requests, stats = _timed_pass(model, graph, fault_plan=plan)

    # Faults really fired and failover really happened.
    assert stats.injected_faults > 0
    assert stats.worker_failures == stats.injected_faults
    assert stats.failovers > 0

    # Exactly-once termination: nothing lost, nothing double-counted.
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

    # Every completed answer is bitwise equal to offline inference.  With two
    # replicas and two retries a loss needs 3 consecutive 10% draws, so the
    # fixed seed completes everything — but the gate is the equality, not the
    # completion count.
    completed = [request for request in requests if request.completed]
    assert len(completed) >= int(0.99 * len(requests))
    for request in completed:
        assert request.prediction == reference[request.node]


def test_failover_throughput_gate(served_setup, save_result):
    """Gates 2+3: failover and idle-machinery throughput floors."""
    graph, model, reference = served_setup

    variants = {
        "fault_free": lambda: None,
        "idle_plan": lambda: FaultPlan(FaultSpec(fail_rate=0.0), seed=CHAOS_SEED),
        "faulty": lambda: FaultPlan.replica_failures(FAIL_RATE, seed=CHAOS_SEED),
    }
    _timed_pass(model, graph, fault_plan=None)  # warm numpy/scipy paths once
    best = dict.fromkeys(variants, float("inf"))
    last = {}
    for _ in range(REPEATS):
        for name, make_plan in variants.items():  # interleaved: fair scheduler noise
            seconds, requests, stats = _timed_pass(model, graph, fault_plan=make_plan())
            best[name] = min(best[name], seconds)
            last[name] = (requests, stats)

    for name, (requests, _) in last.items():
        for request in requests:
            if request.completed:
                assert request.prediction == reference[request.node], name

    total = len(_stream(graph))
    rates = {name: total / seconds for name, seconds in best.items()}
    throughput_ratio = rates["faulty"] / rates["fault_free"]
    idle_ratio = rates["idle_plan"] / rates["fault_free"]
    faulty_stats = last["faulty"][1]

    save_result(
        "serving_faults",
        f"end-to-end serving under chaos (CPU time, best of {REPEATS}), GCN, "
        f"{NUM_SHARDS} shards x {NUM_REPLICAS} replicas, batch {BATCH_SIZE}, "
        f"{total} requests on {graph.summary()}\n"
        f"  fault-free : {best['fault_free'] * 1e3:8.1f} ms "
        f"({rates['fault_free']:7.0f} req/s)\n"
        f"  idle plan  : {best['idle_plan'] * 1e3:8.1f} ms "
        f"({rates['idle_plan']:7.0f} req/s, ratio {idle_ratio:.2f}, "
        f"floor {IDLE_FLOOR:.1f})\n"
        f"  10% faults : {best['faulty'] * 1e3:8.1f} ms "
        f"({rates['faulty']:7.0f} req/s, ratio {throughput_ratio:.2f}, "
        f"floor {FAILOVER_FLOOR:.1f})\n"
        f"  chaos      : {faulty_stats.injected_faults} injected, "
        f"{faulty_stats.retried_requests} retried, "
        f"{faulty_stats.failovers} failovers, "
        f"{faulty_stats.failed_requests} failed, "
        f"{faulty_stats.supervisor_restarts} replica rebuilds",
        throughput_ratio=throughput_ratio,
        idle_ratio=idle_ratio,
        injected_faults=faulty_stats.injected_faults,
        failovers=faulty_stats.failovers,
        supervisor_restarts=faulty_stats.supervisor_restarts,
        faulty_req_per_s=rates["faulty"],
        fault_free_req_per_s=rates["fault_free"],
    )
    assert throughput_ratio >= FAILOVER_FLOOR, (
        f"10% replica failures cut throughput to {throughput_ratio:.2f}x "
        f"fault-free (floor {FAILOVER_FLOOR}x)"
    )
    assert idle_ratio >= IDLE_FLOOR, (
        f"idle fault machinery costs {idle_ratio:.2f}x fault-free throughput "
        f"(floor {IDLE_FLOOR}x)"
    )

