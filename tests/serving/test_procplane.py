"""Crash-isolated multi-process serving: shared slabs, real kills, respawns.

The contract under test:

* shared-memory segments carry a magic+epoch header, attach zero-copy, and
  never outlive their creator: ``unlink_all`` is idempotent, ``sweep_stale``
  reclaims segments whose creator pid is dead (a SIGKILL'd run cannot leak
  into the next one), and a server teardown leaves ``/dev/shm`` clean;
* ``executor="process"`` serves bitwise-identically to the serial reference
  behind the unchanged ``submit()`` surface;
* a worker process killed with a real ``SIGKILL`` mid-stream surfaces as a
  typed :class:`ProcessDead`, fails over to a sibling replica with zero lost
  requests, and is respawned under a bumped epoch on the next tick;
* a respawned child pre-warms its cache from the shared halo tier before its
  first predict;
* a wedged (``SIGSTOP``'d) child can neither hang a predict past its
  per-call timeout nor hang ``shutdown()`` — teardown escalates
  terminate → kill and stays bounded;
* killing a server's processes and building a fresh server in the same
  interpreter works (the startup sweep + atexit guards make it safe);
* a reply frame the parent cannot decode, or one answering another request,
  kills the child and fails the call as :class:`ProcessDead`;
* an in-process :class:`ShardWorker` and a :class:`ProcessWorkerHandle`
  implement the same :class:`Replica` surface, and the fleet counters that
  ``stats()`` reports are the ones the telemetry gauges export.
"""

from __future__ import annotations

import inspect
import os
import signal
import time
from multiprocessing import Pipe, get_context
from types import SimpleNamespace

import numpy as np
import pytest

from repro.compression import CompressionConfig
from repro.graph.datasets import synthetic_graph
from repro.models import create_model
from repro.serving import (
    CacheStats,
    EmbeddingCache,
    InferenceServer,
    ProcessDead,
    ProcessTimeout,
    ProcessWorkerHandle,
    ReplicaDead,
    ReplicaHung,
    ServingConfig,
    ShardWorker,
    SharedSlabArena,
    build_shards,
)
from repro.serving.procplane import (
    HEARTBEAT_INTERVAL,
    _ENVELOPE,
    _MSG_PING,
    _MSG_READY,
    _MSG_RESULT,
    _attach_segment,
    _create_segment,
    _pack,
    _send,
    list_segments,
    segment_epoch,
)
from repro.serving.replicas import Replica

GRAPH = synthetic_graph(
    num_nodes=60, num_edges=240, num_features=8, num_classes=3, seed=7, name="procplane-graph"
)
MODEL = create_model(
    "GCN",
    in_features=GRAPH.num_features,
    hidden_features=8,
    num_classes=GRAPH.num_classes,
    compression=CompressionConfig(block_size=4),
    seed=0,
)


def _reference_predictions():
    server = InferenceServer(
        MODEL, GRAPH, ServingConfig(num_shards=2, max_batch_size=8, max_delay=0.0)
    )
    try:
        return server.predict(range(GRAPH.num_nodes))
    finally:
        server.shutdown()


def _process_server(**overrides):
    defaults = dict(
        num_shards=2,
        executor="process",
        max_batch_size=8,
        max_delay=0.0,
        cache_capacity=1024,
        seed=0,
    )
    defaults.update(overrides)
    return InferenceServer(MODEL, GRAPH, ServingConfig(**defaults))


def _handles(server):
    return [worker for worker in server.workers if isinstance(worker, ProcessWorkerHandle)]


def _dead_pid():
    """A pid guaranteed dead: fork a child that exits immediately."""
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    return pid


class TestSegments:
    def test_header_roundtrip_and_attach(self):
        arena = SharedSlabArena(token="t0")
        try:
            name, view = arena.create("unit", (4, 3), np.float64, epoch=7)
            view[...] = np.arange(12, dtype=np.float64).reshape(4, 3)
            shm, attached = SharedSlabArena.attach(name, (4, 3), np.float64)
            assert segment_epoch(shm) == 7
            np.testing.assert_array_equal(attached, view)
            attached[0, 0] = -1.0  # shared bytes: the creator's view sees it
            assert view[0, 0] == -1.0
            del attached
            shm.close()
        finally:
            arena.unlink_all()
        assert not list_segments(arena.base)

    def test_attach_rejects_headerless_segment(self):
        from multiprocessing.shared_memory import SharedMemory

        shm = SharedMemory(name="bgnn-header-test", create=True, size=64)
        try:
            with pytest.raises(ValueError, match="header"):
                _attach_segment("bgnn-header-test", (2,), np.float64)
        finally:
            shm.unlink()
            shm.close()

    def test_unlink_all_is_idempotent(self):
        arena = SharedSlabArena(token="t1")
        arena.create("once", (2,), np.int64)
        arena.unlink_all()
        arena.unlink_all()
        assert not list_segments(arena.base)

    def test_sweep_stale_reclaims_dead_creators_only(self):
        dead = _dead_pid()
        stale_name = f"bgnn-{dead}-deadbeef-slab"
        shm, _ = _create_segment(stale_name, (2,), np.int64)
        shm.close()
        arena = SharedSlabArena(token="t2")  # a *live* creator
        live_name, _ = arena.create("live", (2,), np.int64)
        try:
            removed = SharedSlabArena.sweep_stale()
            assert stale_name in removed
            assert live_name not in removed
            assert stale_name not in list_segments()
            assert live_name in list_segments()
        finally:
            arena.unlink_all()


class TestProcessServing:
    def test_config_rejects_nonpositive_call_timeout(self):
        with pytest.raises(ValueError, match="process_call_timeout"):
            ServingConfig(executor="process", process_call_timeout=0.0)

    def test_matches_serial_bitwise_and_sweeps_segments(self):
        expected = _reference_predictions()
        server = _process_server()
        base = server.plane.arena.base
        try:
            got = server.predict(range(GRAPH.num_nodes))
            np.testing.assert_array_equal(got, expected)
            stats = server.stats()
            # Per-process mirrors made it back over the control channel.
            assert all(load.pid is not None for load in stats.workers)
            assert all(load.rss_bytes is not None for load in stats.workers)
            assert "worker processes:" in stats.render()
            assert stats.cache.lookups > 0  # child cache stats synced
        finally:
            server.shutdown()
        assert not list_segments(base)
        for handle in _handles(server):
            assert not handle._proc.is_alive()

    def test_tiny_cache_evicts_in_the_child_and_stays_exact(self):
        expected = _reference_predictions()
        server = _process_server(cache_capacity=8)
        try:
            nodes = list(range(GRAPH.num_nodes))
            np.testing.assert_array_equal(server.predict(nodes), expected)
            np.testing.assert_array_equal(server.predict(nodes), expected)
            assert server.stats().cache.evictions > 0  # shared-memory slabs churned
        finally:
            server.shutdown()

    def test_sigkill_mid_stream_is_typed_failed_over_and_healed(self):
        expected = _reference_predictions()
        server = _process_server(
            num_replicas=2,
            health_failure_threshold=1,
            max_retries=3,
        )
        base = server.plane.arena.base
        try:
            nodes = list(range(GRAPH.num_nodes))
            first = server.predict(nodes)
            np.testing.assert_array_equal(first, expected)
            victim = _handles(server)[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim._proc.join(5.0)
            # Stream on: the dead process surfaces as ProcessDead, fails over
            # to the sibling replica, and the next tick respawns it.
            second = server.predict(nodes)
            np.testing.assert_array_equal(second, expected)
            stats = server.stats()
            assert stats.failed_requests == 0
            assert stats.supervisor_restarts >= 1
            replacement = server.workers[victim.worker_id]
            assert isinstance(replacement, ProcessWorkerHandle)
            assert replacement is not victim
            assert replacement.epoch == victim.epoch + 1
            assert replacement._proc.is_alive()
            third = server.predict(nodes)
            np.testing.assert_array_equal(third, expected)
        finally:
            server.shutdown()
        assert not list_segments(base)

    def test_respawned_child_prewarms_from_the_shared_halo_tier(self):
        """A fresh child has seen no predict yet, so the halo signature it
        prewarms under must come from spawn, not from its first flush."""
        expected = MODEL.full_forward(GRAPH).data.argmax(axis=-1)
        server = _process_server()
        base = server.plane.arena.base
        try:
            nodes = list(range(GRAPH.num_nodes))
            np.testing.assert_array_equal(server.predict(nodes), expected)
            server.restart_replica(0)
            stats = server.stats()
            assert stats.supervisor_restarts == 1
            assert stats.prewarmed_rows > 0
            np.testing.assert_array_equal(server.predict(nodes), expected)
        finally:
            server.shutdown()
        assert not list_segments(base)

    def test_process_dead_is_replica_dead_and_timeout_is_hung(self):
        assert issubclass(ProcessDead, ReplicaDead)
        assert issubclass(ProcessTimeout, ReplicaHung)

    def test_wedged_child_times_out_and_is_killed(self):
        server = _process_server(process_call_timeout=1.0)
        base = server.plane.arena.base
        try:
            handle = _handles(server)[0]
            # Prime the READY handshake, then wedge the child completely.
            server.predict([int(handle.shard.core_nodes[0])])
            os.kill(handle.pid, signal.SIGSTOP)
            node = int(handle.shard.core_nodes[0])
            with pytest.raises(ProcessTimeout):
                handle.predict(np.array([node], dtype=np.int64))
            # The timed-out child was SIGKILLed, not left to desync the pipe.
            handle._proc.join(5.0)
            assert not handle._proc.is_alive()
        finally:
            server.shutdown()
        assert not list_segments(base)

    def test_shutdown_escalates_past_a_stopped_child(self):
        server = _process_server(process_call_timeout=1.0)
        base = server.plane.arena.base
        handle = _handles(server)[0]
        server.predict([int(handle.shard.core_nodes[0])])  # complete READY
        os.kill(handle.pid, signal.SIGSTOP)
        start = time.monotonic()
        server.shutdown()
        elapsed = time.monotonic() - start
        # Graceful join (bounded) + terminate (ignored while stopped) + kill.
        assert elapsed < 30.0
        for worker in _handles(server):
            worker._proc.join(5.0)
            assert not worker._proc.is_alive()
        assert not list_segments(base)

    def test_kill_everything_and_recreate_server_in_process(self):
        expected = _reference_predictions()
        first = _process_server()
        base_one = first.plane.arena.base
        for handle in _handles(first):
            os.kill(handle.pid, signal.SIGKILL)
            handle._proc.join(5.0)
        # Shutdown after the massacre must not raise and must still sweep.
        first.shutdown()
        assert not list_segments(base_one)
        # Simulate a segment leaked by a SIGKILL'd *parent* (dead creator pid):
        # the next server's startup sweep reclaims it.
        stale = f"bgnn-{_dead_pid()}-feedface-features"
        shm, _ = _create_segment(stale, (4,), np.float64)
        shm.close()
        second = _process_server()
        try:
            assert stale in second.swept_segments
            assert stale not in list_segments()
            np.testing.assert_array_equal(
                second.predict(range(GRAPH.num_nodes)), expected
            )
        finally:
            second.shutdown()


class TestFleetStats:
    def test_registry_deltas_merge_into_fleet_view(self):
        server = _process_server(telemetry="metrics")
        try:
            server.predict(range(GRAPH.num_nodes))
            server.stats()  # forces a sync
            family = server.telemetry.registry.get("serving_stage_seconds")
            assert family is not None
            total = sum(child.count for _, child in family.samples())
            assert total > 0  # child-side stage histograms reached the parent
        finally:
            server.shutdown()

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_gauges_and_stats_read_the_same_fleet_counters(self, executor):
        server = _process_server(executor=executor, telemetry="metrics")
        try:
            nodes = list(range(GRAPH.num_nodes))
            server.predict(nodes)
            server.predict(nodes)
            samples = server.telemetry.snapshot()["serving_halo_events"]["samples"]
            stats = server.stats()
            halo = stats.halo.as_dict()
            assert halo["hits"] > 0 and halo["misses"] > 0
            assert {sample["labels"][0]: sample["value"] for sample in samples} == halo
            # The executor is reported by its configured name.
            assert stats.executor == executor
            assert f"executor {executor}," in server.describe()
        finally:
            server.shutdown()

    def test_reset_stats_zeroes_parent_and_child(self):
        server = _process_server()
        try:
            server.predict(range(GRAPH.num_nodes))
            assert server.stats().cache.lookups > 0
            server.reset_stats()
            stats = server.stats()
            assert stats.cache.lookups == 0
            assert all(load.batches == 0 for load in stats.workers)
        finally:
            server.shutdown()


#: Reply frames for request id 1 that the parent cannot accept.
BAD_REPLY_FRAMES = pytest.mark.parametrize(
    "frame",
    [
        b"\x02\x00\x00",  # header shorter than the 13-byte envelope
        _ENVELOPE.pack(_MSG_RESULT, 1, 64) + b"abc",  # body shorter than declared
        _ENVELOPE.pack(_MSG_RESULT, 1, 4) + b"\xff\xfe\xfd\xfc",  # not a pickle
        _pack(_MSG_RESULT, 2, np.array([0])),  # answers another request
    ],
    ids=["short-header", "short-body", "bad-pickle", "wrong-req-id"],
)


class TestMalformedFrames:
    """The parent's side of the pipe protocol against a scripted child.

    The child is a sleeping stand-in process; the test writes the reply
    frames itself.  The handle's first request carries id 1.
    """

    @staticmethod
    def _handle():
        child = get_context("spawn").Process(target=time.sleep, args=(60,), daemon=True)
        child.start()
        request_parent, request_child = Pipe()
        control_parent, control_child = Pipe()
        spec = SimpleNamespace(
            worker_id=0, shard_id=0, epoch=0, cache_segment_base="bgnn-frame-test-"
        )
        handle = ProcessWorkerHandle(
            spec, child, request_parent, control_parent, None, None, call_timeout=5.0
        )
        _send(control_child, _MSG_READY, 0, None)
        return handle, request_child, control_child

    @staticmethod
    def _assert_killed(handle):
        assert handle._dead and not handle.alive
        handle._proc.join(5.0)
        assert not handle._proc.is_alive()

    @BAD_REPLY_FRAMES
    def test_predict_reply_frame(self, frame):
        handle, request_child, control_child = self._handle()
        try:
            request_child.send_bytes(frame)
            with pytest.raises(ProcessDead):
                handle.predict(np.array([0], dtype=np.int64))
            self._assert_killed(handle)
        finally:
            handle.close(timeout=0.0)
            request_child.close()
            control_child.close()

    @BAD_REPLY_FRAMES
    def test_control_reply_frame(self, frame):
        handle, request_child, control_child = self._handle()
        try:
            control_child.send_bytes(frame)
            with pytest.raises(ProcessDead):
                handle._control_rpc(_MSG_PING)
            self._assert_killed(handle)
        finally:
            handle.close(timeout=0.0)
            request_child.close()
            control_child.close()

    def test_heartbeat_on_a_malformed_frame_marks_the_handle_dead(self):
        handle, request_child, control_child = self._handle()
        try:
            handle._ensure_ready()
            handle._last_beat -= HEARTBEAT_INTERVAL  # the next tick pings
            control_child.send_bytes(b"\x02\x00\x00")
            handle.maybe_heartbeat()  # liveness failures never raise
            self._assert_killed(handle)
            with pytest.raises(ProcessDead):
                handle.predict(np.array([0], dtype=np.int64))
        finally:
            handle.close(timeout=0.0)
            request_child.close()
            control_child.close()


def _surface_members():
    return [
        name
        for name, member in vars(Replica).items()
        if isinstance(member, property) or inspect.isfunction(member)
        if not name.startswith("_")
    ]


class TestReplicaSurface:
    def test_both_replica_kinds_define_every_member_alike(self):
        members = _surface_members()
        assert {"predict", "kill", "close", "sync", "maybe_heartbeat", "reset_stats",
                "bind_telemetry", "pid", "heartbeat_age", "rss_bytes", "halo_stats"} <= set(members)
        for name in members:
            spec = inspect.getattr_static(Replica, name)
            local = inspect.getattr_static(ShardWorker, name)
            remote = inspect.getattr_static(ProcessWorkerHandle, name)
            if inspect.isfunction(spec):
                assert inspect.isfunction(local) and inspect.isfunction(remote), name
                expected = list(inspect.signature(spec).parameters)
                assert list(inspect.signature(local).parameters) == expected, name
                assert list(inspect.signature(remote).parameters) == expected, name
            else:
                assert not inspect.isfunction(local) and not inspect.isfunction(remote), name

    def test_bare_shard_worker_hooks_reset_and_kill(self):
        shard = build_shards(GRAPH, 2, MODEL.num_layers)[0]
        worker = ShardWorker(0, shard, MODEL, EmbeddingCache(1024, num_nodes=GRAPH.num_nodes))
        assert worker.pid is None and worker.rss_bytes is None and worker.heartbeat_age is None
        assert worker.sync(timeout=1.0) and worker.halo_stats == CacheStats()
        nodes = np.asarray(shard.core_nodes[:4], dtype=np.int64)
        first = worker.predict(nodes)
        assert worker.batches_served == 1 and worker.nodes_served == len(nodes)
        assert worker.cache.stats.misses > 0 and any(worker.timings.totals.values())
        worker.reset_stats()
        assert (worker.batches_served, worker.nodes_served, worker.peak_inflight) == (0, 0, 0)
        assert worker.cache.stats == CacheStats()
        assert not any(worker.timings.totals.values())
        # The cache contents survive the reset: the warm rows still hit.
        np.testing.assert_array_equal(worker.predict(nodes), first)
        assert worker.cache.stats.hits > 0 and worker.cache.stats.misses == 0
        worker.kill()
        with pytest.raises(ReplicaDead):
            worker.predict(nodes)
