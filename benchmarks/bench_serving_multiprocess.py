"""Crash-isolated multi-process serving benchmarks with gates.

Gates on the synthetic Reddit-like graph served by ``executor="process"``
workers over shared-memory slabs (the PR-10 process plane):

1. **Process beats threads** (``process_vs_thread_ratio``): on >= 4 shards
   the process executor's throughput must strictly exceed the thread-pool
   executor's on the identical stream, with predictions bitwise equal to
   offline inference under both.  Worker processes sidestep the GIL on the
   Python-side batch assembly that threads serialise.  Needs >= 4 CPUs to
   mean anything, so the gate skips (with the host's count in the reason)
   on smaller runners; the ratio assertion follows ``BLOCKGNN_STRICT_PERF``.
2. **SIGKILL heal, zero lost** (``healed_steady_state_ratio``): one worker
   process per shard is killed with a real ``SIGKILL`` mid-stream.  Every
   kill must surface as a typed :class:`~repro.serving.ProcessDead`, fail
   over to the sibling replica with zero lost requests (ledger balances,
   every completion bitwise exact), and the next tick must respawn the
   corpse under a bumped epoch.  The respawned child copies nothing: its
   first pass over nodes the fleet already served must read the shared
   store (bitwise exact, only hits in its own lookups, no plan built).  A
   timed pass on
   the healed fleet must reach >= ``STEADY_FLOOR`` x the pre-kill
   steady-state throughput of the same server (wall-clock — real processes —
   so the assertion follows ``BLOCKGNN_STRICT_PERF``; the trend gate tracks
   the ratio).  Each steady state is the best of ``REPEATS`` passes, or in
   quick mode the median of ``QUICK_PASSES``.
3. **No leaked segments** (unconditional): after SIGKILLing *every* worker
   and draining, shutdown leaves no shared-memory segment behind, and a
   segment orphaned by a dead creator is reclaimed by the next server's
   startup sweep.

``BLOCKGNN_QUICK=1`` shrinks the graph, stream, and fleet for CI.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

import numpy as np
import pytest

from repro.graph import load_dataset
from repro.models import Trainer, TrainingConfig, create_model
from repro.serving import InferenceServer, ProcessWorkerHandle, ServingConfig
from repro.serving.procplane import list_segments

QUICK = os.environ.get("BLOCKGNN_QUICK", "0") == "1"
STRICT_PERF = os.environ.get("BLOCKGNN_STRICT_PERF", "1") != "0"
CPUS = os.cpu_count() or 1

SCALE = 0.0015 if QUICK else 0.004
HIDDEN = 32 if QUICK else 64
BATCH_SIZE = 16
REPEATS = 3
#: Quick steady-state passes timed on each side of the kill, summarised by
#: their median.  A quick pass is 50-100 ms of wall clock; on a 2-vCPU host
#: the best of 3 on each side gave ratios from 0.78 to 1.84 across runs of
#: one tree, the median of 15 0.86-1.16 over 10 runs.  Neighbour load that
#: shifts for seconds at a time still moves it (0.55-1.59 in a busy hour).
QUICK_PASSES = 15
STREAM = 3  # batches per shard per pass

#: Gate 1 fleet: wide enough that flush parallelism is the signal.
WIDE_SHARDS = 4

#: Gate 2 fleet: one kill victim + one surviving sibling per shard.
HEAL_SHARDS = 2 if QUICK else 4

#: Healed steady-state throughput floor vs the same server pre-kill.
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


def _server(model, graph, num_shards, **overrides):
    defaults = dict(
        num_shards=num_shards,
        max_batch_size=BATCH_SIZE,
        max_delay=0.0,
        cache_capacity=65536,
        seed=0,
    )
    defaults.update(overrides)
    return InferenceServer(model, graph, ServingConfig(**defaults))


def _stream(graph, num_shards, seed=1):
    size = STREAM * BATCH_SIZE * num_shards
    return np.random.default_rng(seed).choice(graph.num_nodes, size=size, replace=True)


def _timed_pass(server, nodes):
    start = time.perf_counter()
    requests = server.submit_many(nodes)
    server.drain()
    return time.perf_counter() - start, requests


#: How a steady state is summarised: the median of the quick passes, the
#: best of the full ones.
STEADY_SUMMARY = f"median of {QUICK_PASSES}" if QUICK else f"best of {REPEATS}"


def _steady_seconds(server, graph) -> float:
    """Wall seconds of one steady-state pass of the heal gate's stream."""
    seconds = [
        _timed_pass(server, _stream(graph, HEAL_SHARDS, seed=2))[0]
        for _ in range(QUICK_PASSES if QUICK else REPEATS)
    ]
    return statistics.median(seconds) if QUICK else min(seconds)


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


def _handles(server):
    return [worker for worker in server.workers if isinstance(worker, ProcessWorkerHandle)]


@pytest.mark.skipif(
    CPUS < 4,
    reason=f"process-vs-thread throughput gate needs >= 4 CPUs (host has {CPUS})",
)
def test_process_beats_threads_on_wide_fleet(served_setup, save_result):
    """Gate 1: worker processes out-serve the thread pool on >= 4 shards,
    bitwise equal under both executors."""
    graph, model, reference = served_setup
    nodes = _stream(graph, WIDE_SHARDS)

    def run(executor):
        server = _server(model, graph, WIDE_SHARDS, executor=executor)
        try:
            server.predict(nodes[:BATCH_SIZE])  # warm spawn/compile paths
            best = float("inf")
            requests = []
            for _ in range(REPEATS):
                seconds, requests = _timed_pass(server, nodes)
                best = min(best, seconds)
            stats = server.stats()
            _assert_ledger_balances(requests, stats, reference)
            assert stats.failed_requests == 0
        finally:
            server.shutdown()
        return best

    thread_seconds = run("concurrent")
    process_seconds = run("process")
    ratio = thread_seconds / process_seconds

    save_result(
        "serving_multiprocess_throughput",
        f"process vs thread executor (wall-clock, best of {REPEATS}), GCN, "
        f"{WIDE_SHARDS} shards, batch {BATCH_SIZE}, {len(nodes)} requests/pass "
        f"on {graph.summary()} ({CPUS} CPUs)\n"
        f"  thread pool : {thread_seconds * 1e3:8.1f} ms "
        f"({len(nodes) / thread_seconds:7.0f} req/s)\n"
        f"  processes   : {process_seconds * 1e3:8.1f} ms "
        f"({len(nodes) / process_seconds:7.0f} req/s, {ratio:.2f}x)",
        process_vs_thread_ratio=ratio,
        thread_req_per_s=len(nodes) / thread_seconds,
        process_req_per_s=len(nodes) / process_seconds,
    )
    if STRICT_PERF:
        assert ratio > 1.0, (
            f"process executor is {ratio:.2f}x the thread pool on "
            f"{WIDE_SHARDS} shards (must be strictly faster)"
        )


def test_sigkill_heal_mid_stream_zero_lost(served_setup, save_result):
    """Gate 2: SIGKILL one worker process per shard mid-stream; typed
    failover + respawn lose nothing and throughput recovers."""
    graph, model, reference = served_setup
    server = _server(
        model,
        graph,
        HEAL_SHARDS,
        executor="process",
        num_replicas=2,
        health_failure_threshold=1,
        max_retries=3,
    )
    base = server.plane.arena.base
    try:
        warm_nodes = _stream(graph, HEAL_SHARDS)
        np.testing.assert_array_equal(
            server.predict(warm_nodes), reference[warm_nodes]
        )

        before = _steady_seconds(server, graph)

        # One victim per shard: the first replica (shard-major layout).
        victims = [
            server.workers[shard * 2] for shard in range(HEAL_SHARDS)
        ]
        assert all(isinstance(victim, ProcessWorkerHandle) for victim in victims)
        for victim in victims:
            os.kill(victim.pid, signal.SIGKILL)
            victim._proc.join(5.0)

        # Mid-stream: the kills surface as ProcessDead on dispatch, fail over
        # to the sibling replica, and the next tick respawns each corpse.
        heal_nodes = _stream(graph, HEAL_SHARDS, seed=3)
        _, heal_requests = _timed_pass(server, heal_nodes)
        stats = server.stats()
        # Zero lost: every mid-kill request completes bitwise-exact, and the
        # cumulative ledger (stats span every pass) still balances.
        assert all(request.completed for request in heal_requests)
        for request in heal_requests:
            assert request.prediction == reference[request.node]
        terminal = (
            stats.completed_requests
            + stats.failed_requests
            + stats.rejected_requests
            + stats.shed_requests
            + stats.expired_requests
        )
        assert terminal == stats.submitted_requests
        assert stats.failed_requests == 0
        assert stats.supervisor_restarts >= len(victims)
        for victim in victims:
            replacement = server.workers[victim.worker_id]
            assert isinstance(replacement, ProcessWorkerHandle)
            assert replacement is not victim
            assert replacement.epoch == victim.epoch + 1
            assert replacement._proc.is_alive()
        # Each respawned child reads the rows the fleet already computed.
        served = np.unique(warm_nodes)
        for victim in victims:
            replacement = server.workers[victim.worker_id]
            nodes = np.intersect1d(served, replacement.shard.core_nodes)
            assert len(nodes) and replacement.sync(timeout=5.0)
            hits, misses = replacement.cache_stats.hits, replacement.cache_stats.misses
            planned = replacement.timings.totals["plan_build"]
            np.testing.assert_array_equal(replacement.predict(nodes), reference[nodes])
            assert replacement.sync(timeout=5.0)
            assert replacement.cache_stats.misses == misses
            assert replacement.cache_stats.hits >= hits + len(nodes)
            assert replacement.timings.totals["plan_build"] == planned

        after = _steady_seconds(server, graph)
    finally:
        server.shutdown()
    assert not list_segments(base)  # gate 3's invariant holds here too

    total = len(_stream(graph, HEAL_SHARDS))
    healed_steady_state_ratio = before / after
    save_result(
        "serving_multiprocess",
        f"SIGKILL heal (wall-clock, {STEADY_SUMMARY}), GCN, {HEAL_SHARDS} "
        f"shards x 2 replicas (processes), batch {BATCH_SIZE}, "
        f"{total} requests/pass on {graph.summary()}\n"
        f"  pre-kill steady state : {before * 1e3:8.1f} ms "
        f"({total / before:7.0f} req/s)\n"
        f"  healed steady state   : {after * 1e3:8.1f} ms "
        f"({total / after:7.0f} req/s, ratio {healed_steady_state_ratio:.2f}, "
        f"floor {STEADY_FLOOR:.1f})\n"
        f"  healing               : {stats.supervisor_restarts} respawns, "
        f"0 lost of {len(heal_requests)} mid-kill requests",
        healed_steady_state_ratio=healed_steady_state_ratio,
        supervisor_restarts=stats.supervisor_restarts,
        healed_req_per_s=total / after,
        pre_kill_req_per_s=total / before,
    )
    if STRICT_PERF:
        assert healed_steady_state_ratio >= STEADY_FLOOR, (
            f"healed fleet reaches only {healed_steady_state_ratio:.2f}x its "
            f"pre-kill steady-state throughput (floor {STEADY_FLOOR}x)"
        )


def test_no_leaked_segments_after_killing_everything(served_setup):
    """Gate 3 (unconditional): SIGKILL every worker, drain, shut down —
    /dev/shm is clean, and a dead creator's orphan is swept at startup."""
    graph, model, _ = served_setup
    server = _server(model, graph, 2, executor="process")
    base = server.plane.arena.base
    server.predict(_stream(graph, 2)[:BATCH_SIZE])
    for handle in _handles(server):
        os.kill(handle.pid, signal.SIGKILL)
        handle._proc.join(5.0)
    server.shutdown()  # must not raise, must still sweep
    assert not list_segments(base)

    # An orphan left by a SIGKILL'd *parent* (its creator pid is dead) is
    # reclaimed by the next server's startup sweep.
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    from repro.serving.procplane import _create_segment

    stale = f"bgnn-{pid}-cafef00d-features"
    shm, _ = _create_segment(stale, (4,), np.float64)
    shm.close()
    fresh = _server(model, graph, 2, executor="process")
    try:
        assert stale in fresh.swept_segments
        assert stale not in list_segments()
    finally:
        fresh.shutdown()
    assert not list_segments(fresh.plane.arena.base)
