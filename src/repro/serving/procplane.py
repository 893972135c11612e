"""Crash-isolated multi-process serving plane (``executor="process"``).

Each shard replica is a *worker process*, so a segfault, OOM kill or wedged
C extension takes down one replica, not the server, and flushes escape the
GIL:

* :class:`SharedSlabArena` owns named ``multiprocessing.shared_memory``
  segments — shard CSRs, feature matrices and the
  :class:`SharedHaloStore` all live in ``/dev/shm`` with a 16-byte
  magic+epoch header, so a respawned process re-attaches the same bytes
  instead of re-pickling a graph.  With the halo tier on, that store is
  every child's only embedding store; with it off, a child builds its
  private store (``cache_capacity > 0``) in its own ordinary memory.
  Lifecycle is hardened three ways: ``weakref.finalize`` per segment, an
  ``atexit`` sweep of live arenas, and a *startup stale-segment sweep* that
  unlinks segments whose creator pid is dead (a SIGKILL'd run cannot leak
  into the next one).
* :func:`_child_main` is the spawn-safe process entry point: it attaches
  the segments, rebuilds the :class:`~repro.serving.shard.GraphShard` over
  zero-copy views, and runs a real ``ShardWorker`` behind a length-prefixed
  request/response protocol over pipes.  A daemon *control* thread answers
  heartbeats, stats syncs and resets while the main thread is
  busy predicting — liveness stays observable independent of the request
  path, in the spirit of DGL KVStore's pull/push control channel.
* :class:`ProcessWorkerHandle` is the parent-side proxy speaking that
  protocol with per-call timeouts: the same
  :class:`~repro.serving.replicas.Replica` surface as a ``ShardWorker``.
  Its typed :class:`ProcessDead` / :class:`ProcessTimeout` errors feed the
  same retry/failover path and rebuilds; a timed-out child is killed so the
  pipe can never desynchronise.  Per-process ``MetricsRegistry`` snapshots
  ship back as reset-on-read deltas and merge by addition into the fleet's.
* :class:`ProcessPlane` ties it together behind the same surface as the
  in-process :class:`~repro.serving.worker.LocalPlane`: it publishes each
  shard's slabs once, spawns/respawns workers under bumped epochs,
  heartbeats them, and sweeps every segment at shutdown.  Flush tasks run on
  the ``ConcurrentExecutor``, whose threads wait in pipe I/O with the GIL
  released while the children compute.

Spawn-safety caveats: the model is pickled once per spawn (weights must not
be mutated mid-serving — each child checks its own weight signature), and
``fork`` is never used, so the plane behaves identically on every start
method and never inherits locks mid-acquisition.
"""

from __future__ import annotations

import atexit
import math
import os
import pickle
import signal
import struct
import threading
import time
import traceback
import weakref
from dataclasses import dataclass
from multiprocessing import connection, get_context
from multiprocessing.shared_memory import SharedMemory
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..graph.graph import Graph
from ..telemetry import MetricsRegistry
from .cache import CacheStats, HaloStore
from .faults import ReplicaDead, ReplicaHung
from .shard import GraphShard
from .timing import StageTimer
from .worker import ShardWorker, WorkerRetired

__all__ = [
    "SEGMENT_PREFIX",
    "SharedSlabArena",
    "SharedHaloStore",
    "ProcessPlane",
    "ProcessWorkerHandle",
    "ProcessDead",
    "ProcessTimeout",
    "WorkerSpec",
    "list_segments",
]


class ProcessDead(ReplicaDead):
    """The worker process exited (or its pipe broke) while a call was due.

    Subclasses :class:`~repro.serving.faults.ReplicaDead`, so the
    retry/failover path and the replica rebuild treat a real process crash
    exactly like an injected ``die`` fault.
    """


class ProcessTimeout(ReplicaHung):
    """A call outlived its per-call timeout; the child was killed.

    Subclasses :class:`~repro.serving.faults.ReplicaHung` — a wedged process
    is the real-world event the simulated ``hang`` fault stood in for.  The
    handle SIGKILLs the child before raising, so a late reply can never be
    mistaken for the answer to a newer request.
    """


# ---------------------------------------------------------------------------
# Shared-memory segments: naming, headers, lifecycle.
# ---------------------------------------------------------------------------

#: Every segment this plane creates is named ``bgnn-<creator pid>-<token>-…``
#: so the stale sweep can attribute ownership by pid liveness alone.
SEGMENT_PREFIX = "bgnn"

_MAGIC = b"BLKGNN01"
#: magic (8 bytes) + little-endian int64 epoch; 16 keeps float64 views aligned.
_HEADER_BYTES = 16


def _segment_nbytes(shape, dtype) -> int:
    payload = math.prod(shape) * np.dtype(dtype).itemsize if len(shape) else np.dtype(dtype).itemsize
    return _HEADER_BYTES + max(int(payload), 8)


def _create_segment(name: str, shape, dtype, epoch: int = 0):
    """Create + header-stamp one named segment; returns ``(shm, view)``."""
    shm = SharedMemory(name=name, create=True, size=_segment_nbytes(shape, dtype))
    shm.buf[:8] = _MAGIC
    struct.pack_into("<q", shm.buf, 8, int(epoch))
    view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=_HEADER_BYTES)
    return shm, view


def _attach_segment(name: str, shape, dtype):
    """Attach an existing segment, validating its header; ``(shm, view)``."""
    shm = SharedMemory(name=name)
    if bytes(shm.buf[:8]) != _MAGIC:
        shm.close()
        raise ValueError(f"shared segment {name!r} has no {_MAGIC!r} header")
    view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=_HEADER_BYTES)
    return shm, view


def segment_epoch(shm: SharedMemory) -> int:
    """The epoch stamped into a segment's header at creation."""
    return struct.unpack_from("<q", shm.buf, 8)[0]


def _unlink_by_name(name: str) -> bool:
    """Unlink a segment by name (idempotent; safe on already-gone names)."""
    try:
        shm = SharedMemory(name=name)
    except FileNotFoundError:
        return False
    try:
        shm.unlink()
    except FileNotFoundError:
        pass
    finally:
        shm.close()
    return True


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def list_segments(prefix: str = SEGMENT_PREFIX) -> List[str]:
    """Plane-owned ``/dev/shm`` entries (the leak-check the benches assert on)."""
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):
        return []
    return sorted(entry for entry in os.listdir(shm_dir) if entry.startswith(prefix))


_ARENAS: "weakref.WeakSet[SharedSlabArena]" = weakref.WeakSet()
_ATEXIT_ARMED = False


def _atexit_sweep() -> None:
    for arena in list(_ARENAS):
        arena.unlink_all()


class SharedSlabArena:
    """Named shared-memory segments with unlink guards and a stale sweep.

    One arena per server; every segment it creates is named
    ``bgnn-<pid>-<token>-<label>`` and carries the magic+epoch header.  Three
    independent guards keep ``/dev/shm`` clean: a ``weakref.finalize`` per
    segment (GC'd arena → segments unlinked), one ``atexit`` hook sweeping
    all live arenas (interpreter exit), and :meth:`sweep_stale` at the next
    startup (SIGKILL — nothing in-process ran — cannot leak past the next
    server build on the same machine).
    """

    def __init__(self, token: Optional[str] = None) -> None:
        global _ATEXIT_ARMED
        self.pid = os.getpid()
        self.token = token if token is not None else os.urandom(3).hex()
        self.base = f"{SEGMENT_PREFIX}-{self.pid}-{self.token}"
        self._segments: Dict[str, SharedMemory] = {}
        self._finalizers: Dict[str, weakref.finalize] = {}
        self._lock = threading.Lock()
        _ARENAS.add(self)
        if not _ATEXIT_ARMED:
            atexit.register(_atexit_sweep)
            _ATEXIT_ARMED = True

    def segment_name(self, label: str) -> str:
        return f"{self.base}-{label}"

    def create(self, label: str, shape, dtype, epoch: int = 0) -> Tuple[str, np.ndarray]:
        """Create one segment; returns ``(segment name, ndarray view)``."""
        name = self.segment_name(label)
        shm, view = _create_segment(name, shape, dtype, epoch=epoch)
        with self._lock:
            self._segments[name] = shm
            self._finalizers[name] = weakref.finalize(self, _unlink_by_name, name)
        return name, view

    @staticmethod
    def attach(name: str, shape, dtype):
        """Attach an existing segment by name; ``(shm, view)``."""
        return _attach_segment(name, shape, dtype)

    def unlink_all(self) -> None:
        """Unlink every segment this arena created (idempotent)."""
        with self._lock:
            segments = dict(self._segments)
            finalizers = dict(self._finalizers)
            self._segments.clear()
            self._finalizers.clear()
        for name, shm in segments.items():
            finalizer = finalizers.get(name)
            if finalizer is not None:
                finalizer.detach()
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
            try:
                shm.close()
            except BufferError:  # a live view pins the map; the unlink stands
                pass

    @staticmethod
    def sweep_stale(keep_pids=()) -> List[str]:
        """Unlink plane segments whose creator pid is dead (startup guard)."""
        removed = []
        keep = {os.getpid(), *keep_pids}
        for entry in list_segments():
            parts = entry.split("-")
            try:
                pid = int(parts[1])
            except (IndexError, ValueError):
                continue
            if pid in keep or _pid_alive(pid):
                continue
            if _unlink_by_name(entry):
                removed.append(entry)
        return removed


# ---------------------------------------------------------------------------
# Shared halo tier: the HaloStore's slabs + epoch cell in named segments.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HaloSegmentSpec:
    """Everything a child needs to attach the shared halo tier by name."""

    num_nodes: int
    epoch_segment: str
    #: ``(layer, dim, slab segment, present-bitmap segment)`` per layer.
    layer_segments: Tuple[Tuple[int, int, str, str], ...]


class SharedHaloStore(HaloStore):
    """A :class:`~repro.serving.cache.HaloStore` over shared-memory slabs.

    The slab/bitmap layout is byte-identical to the in-process store; only
    allocation changes: every layer's ``(num_nodes, dim)`` slab and
    ``(num_nodes,)`` presence map — and the fault-epoch cell — live in named
    segments, pre-allocated for layers ``1..K`` at server build (dims are
    known from the model), so parent and every worker process read and write
    the same bytes.  The epoch is a shared int64 cell: only the
    parent bumps it (on observed failures), children read it before
    publishing, so the epoch guard spans the whole fleet.

    Locks and the weight signature stay per-process: publishes of the same
    exact row are idempotent-identical, and weights are frozen while the
    process plane serves (the documented spawn-safety caveat), so each child
    adopts its model's signature on the attached store at its first predict.
    """

    def __init__(
        self,
        num_nodes: int,
        epoch_cell: np.ndarray,
        layer_views: Dict[int, Tuple[np.ndarray, np.ndarray]],
        segments: List[SharedMemory],
        spec: HaloSegmentSpec,
    ) -> None:
        super().__init__(num_nodes)
        self._epoch_cell = epoch_cell
        self._layers = dict(layer_views)
        self._segments = segments  # keeps the attached maps alive
        self.spec = spec

    # The base class routes every epoch read through _current_epoch().
    def _current_epoch(self) -> int:
        return int(self._epoch_cell[0])

    def bump_epoch(self) -> int:
        with self._lock:
            self._epoch_cell[0] += 1
            return int(self._epoch_cell[0])

    @classmethod
    def create(
        cls,
        arena: SharedSlabArena,
        num_nodes: int,
        layer_dims: Dict[int, int],
    ) -> "SharedHaloStore":
        epoch_name, epoch_cell = arena.create("halo-epoch", (1,), np.int64)
        epoch_cell[0] = 0
        layer_views: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        layer_segments = []
        for layer, dim in sorted(layer_dims.items()):
            slab_name, slab = arena.create(f"halo-l{layer}", (num_nodes, dim), np.float64)
            present_name, present = arena.create(f"halo-p{layer}", (num_nodes,), np.bool_)
            present[:] = False
            layer_views[layer] = (slab, present)
            layer_segments.append((layer, dim, slab_name, present_name))
        spec = HaloSegmentSpec(
            num_nodes=int(num_nodes),
            epoch_segment=epoch_name,
            layer_segments=tuple(layer_segments),
        )
        return cls(num_nodes, epoch_cell, layer_views, [], spec)

    @classmethod
    def attach(cls, spec: HaloSegmentSpec) -> "SharedHaloStore":
        segments: List[SharedMemory] = []
        shm, epoch_cell = _attach_segment(spec.epoch_segment, (1,), np.int64)
        segments.append(shm)
        layer_views: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for layer, dim, slab_name, present_name in spec.layer_segments:
            shape = (spec.num_nodes, dim)
            slab_shm, slab = _attach_segment(slab_name, shape, np.float64)
            present_shm, present = _attach_segment(present_name, (shape[0],), np.bool_)
            segments.extend((slab_shm, present_shm))
            layer_views[layer] = (slab, present)
        return cls(spec.num_nodes, epoch_cell, layer_views, segments, spec)


# ---------------------------------------------------------------------------
# Length-prefixed request/response protocol.
# ---------------------------------------------------------------------------

_MSG_PREDICT = 1
_MSG_RESULT = 2
_MSG_ERROR = 3
_MSG_PING = 4
_MSG_SYNC = 5
_MSG_RESET = 7
_MSG_SHUTDOWN = 8
_MSG_READY = 9

#: envelope: message kind (u8), request id (u32), body length (u64).
_ENVELOPE = struct.Struct("!BIQ")

#: Wall seconds between control-channel liveness pings of an idle child.
HEARTBEAT_INTERVAL = 1.0

#: Wall seconds a worker process has to answer one call before it is
#: SIGKILLed and the call raises :class:`ProcessTimeout`.
CALL_TIMEOUT = 30.0


def _pack(kind: int, req_id: int, payload) -> bytes:
    body = b"" if payload is None else pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return _ENVELOPE.pack(kind, req_id, len(body)) + body


def _unpack(data: bytes):
    kind, req_id, length = _ENVELOPE.unpack_from(data)
    body = bytes(data[_ENVELOPE.size: _ENVELOPE.size + length])
    if len(body) != length:
        raise OSError(f"truncated envelope: declared {length} bytes, got {len(body)}")
    return kind, req_id, pickle.loads(body) if length else None


def _send(conn, kind: int, req_id: int, payload) -> None:
    conn.send_bytes(_pack(kind, req_id, payload))


def _rss_bytes() -> Optional[int]:
    """Resident set size from /proc (no psutil dependency)."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return None


# ---------------------------------------------------------------------------
# Worker spec + spawn-safe child entry point.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a spawned child needs to rebuild its ShardWorker.

    Big arrays (CSR, features, halo slabs) travel by segment *name*; only
    the model and the small shard-index arrays are pickled.
    """

    worker_id: int
    shard_id: int
    epoch: int
    model: object
    graph_name: str
    #: field -> (segment name, shape, dtype string) for indptr/indices/features.
    graph_segments: Dict[str, Tuple[str, Tuple[int, ...], str]]
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    core_nodes: np.ndarray
    shard_nodes: np.ndarray
    halo_hops: int
    halo: Optional[HaloSegmentSpec]
    halo_publish_mask: Optional[np.ndarray]
    #: Without a shared store: build a private one over ``num_nodes`` ids.
    private_store: bool
    num_nodes: int


def _child_request_loop(conn, worker: ShardWorker) -> None:
    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):
            return  # parent went away: exit cleanly
        kind, req_id, payload = _unpack(data)
        if kind == _MSG_SHUTDOWN:
            return
        if kind != _MSG_PREDICT:
            continue
        try:
            predictions = worker.predict(np.asarray(payload, dtype=np.int64))
            reply = _pack(_MSG_RESULT, req_id, predictions)
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            reply = _pack(_MSG_ERROR, req_id, exc)
        try:
            conn.send_bytes(reply)
        except (BrokenPipeError, OSError):
            return


def _child_control_loop(conn, worker: ShardWorker, halo, registry) -> None:
    """Daemon thread: liveness + stats stay answerable during slow predicts."""
    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):
            return
        kind, req_id, _ = _unpack(data)
        try:
            if kind == _MSG_PING:
                reply = {"pid": os.getpid(), "rss": _rss_bytes()}
            elif kind == _MSG_SYNC:
                snapshot = registry.snapshot()
                registry.reset()  # ship deltas: parent merges by addition
                reply = {
                    "cache_stats": worker.cache_stats,
                    "halo_stats": halo.stats if halo is not None else None,
                    "timings": dict(worker.timings.totals),
                    "registry": snapshot,
                    "rss": _rss_bytes(),
                    "pid": os.getpid(),
                }
            elif kind == _MSG_RESET:
                worker.reset_stats()
                registry.reset()
                if halo is not None:
                    halo.stats = CacheStats()
                reply = True
            else:
                reply = None
            envelope = _pack(_MSG_RESULT, req_id, reply)
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            envelope = _pack(_MSG_ERROR, req_id, exc)
        try:
            conn.send_bytes(envelope)
        except (BrokenPipeError, OSError):
            return


def _child_main(spec: WorkerSpec, request_conn, control_conn) -> None:
    """Process entry point (spawn-safe: module top-level, arguments pickled)."""
    attached: List[SharedMemory] = []
    try:
        views = {}
        for field, (name, shape, dtype) in spec.graph_segments.items():
            shm, view = _attach_segment(name, shape, np.dtype(dtype))
            attached.append(shm)
            views[field] = view
        graph = Graph(
            indptr=views["indptr"],
            indices=views["indices"],
            features=views["features"],
            labels=spec.labels,
            train_mask=spec.train_mask,
            val_mask=spec.val_mask,
            test_mask=spec.test_mask,
            name=spec.graph_name,
        )
        shard = GraphShard(
            part_id=spec.shard_id,
            core_nodes=spec.core_nodes,
            nodes=spec.shard_nodes,
            graph=graph,
            halo_hops=spec.halo_hops,
        )
        halo = SharedHaloStore.attach(spec.halo) if spec.halo is not None else None
        store = halo
        if store is None and spec.private_store:
            store = HaloStore(spec.num_nodes)
        worker = ShardWorker(
            spec.worker_id,
            shard,
            spec.model,
            store,
            halo_publish_mask=spec.halo_publish_mask,
            epoch=spec.epoch,
        )
        # The child feeds its own stage histograms; each SYNC ships them to
        # the parent as deltas.
        registry = MetricsRegistry()
        worker.bind_telemetry(
            registry.histogram(
                "serving_stage_seconds",
                "Per-flush wall-clock seconds by flush stage and worker",
                labels=("stage", "worker"),
            ),
            registry,
        )
        _send(control_conn, _MSG_READY, 0, {"pid": os.getpid()})
        control = threading.Thread(
            target=_child_control_loop,
            args=(control_conn, worker, halo, registry),
            name=f"serving-proc-control-{spec.worker_id}",
            daemon=True,
        )
        control.start()
        _child_request_loop(request_conn, worker)
    except BaseException:
        traceback.print_exc()
        os._exit(1)
    # Clean exit without interpreter teardown: shared-memory views still
    # reference the maps and a GC-ordered close() would raise spurious
    # BufferErrors on stderr.
    os._exit(0)


# ---------------------------------------------------------------------------
# Parent-side worker proxy.
# ---------------------------------------------------------------------------


class ProcessWorkerHandle:
    """Parent-side proxy for one worker process (the
    :class:`~repro.serving.replicas.Replica` surface).

    Request RPCs (``predict``) run on the request pipe under a per-call
    timeout; control RPCs (heartbeat, stats sync, reset) run on a
    second pipe answered by the child's daemon control thread, so liveness
    is observable *while* a slow predict runs — heartbeat failure is a
    distinct signal from request-path failure.  Every receive waits on the
    pipe *and* the process sentinel, so a crashed child fails the call
    immediately instead of burning the timeout; a timed-out child is
    SIGKILLed before :class:`ProcessTimeout` is raised, so the pipe can
    never carry a stale reply into a later request.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        process,
        request_conn,
        control_conn,
        shard: GraphShard,
        halo_store: Optional[SharedHaloStore],
        call_timeout: float,
        ready_timeout: float = 120.0,
    ) -> None:
        self.spec = spec
        self.worker_id = spec.worker_id
        self.epoch = spec.epoch
        self.shard = shard
        self.retired = False
        self.halo_store = halo_store
        self._proc = process
        self._request_conn = request_conn
        self._control_conn = control_conn
        self._call_timeout = float(call_timeout)
        self._ready_timeout = float(ready_timeout)
        self._rpc_lock = threading.Lock()
        self._control_lock = threading.Lock()
        self._gauge_lock = threading.Lock()
        self._req_counter = 0
        self._ready = False
        self._dead = False
        self._closed = False
        self._last_beat: Optional[float] = None
        self._rss: Optional[int] = None
        # Parent-side mirrors of the child's load counters: incremented on
        # every successful RPC so ServerStats stays synchronous (no pipe
        # round-trip to read a load counter).
        self.batches_served = 0
        self.nodes_served = 0
        self.peak_inflight = 0
        self._inflight = 0
        # Mirrors of the child's stage totals and lookup counts, replaced
        # wholesale on every sync.
        self.timings = StageTimer()
        self.cache_stats = CacheStats()
        self._halo_stats = CacheStats()
        #: The fleet registry the child's delta snapshots merge into.
        self._fleet_registry = None

    # -- identity / liveness ---------------------------------------------------

    @property
    def pid(self) -> Optional[int]:
        return self._proc.pid

    @property
    def inflight(self) -> int:
        with self._gauge_lock:
            return self._inflight

    @property
    def alive(self) -> bool:
        return not self._dead and self._proc.is_alive()

    @property
    def heartbeat_age(self) -> Optional[float]:
        """Wall seconds since the child last answered on the control channel."""
        if self._last_beat is None:
            return None
        return time.monotonic() - self._last_beat

    @property
    def rss_bytes(self) -> Optional[int]:
        return self._rss

    @property
    def halo_stats(self) -> CacheStats:
        """The child's halo hit/miss counters, as of the last sync."""
        return self._halo_stats

    # -- plumbing ----------------------------------------------------------------

    def _next_id(self) -> int:
        self._req_counter = (self._req_counter + 1) % (2**32)
        return self._req_counter

    def _describe(self) -> str:
        return f"worker {self.worker_id} (shard {self.spec.shard_id}, epoch {self.epoch}, pid {self.pid})"

    def _recv(self, conn, timeout: float, req_id: Optional[int] = None):
        """``(kind, payload)`` of one envelope off ``conn``, or a typed error.

        Kills a wedged child.  A frame that does not decode, or that answers
        a request other than ``req_id``, means the pipe is out of step with
        the child: the child is killed too, and the call fails as
        :class:`ProcessDead`.
        """
        try:
            ready = connection.wait([conn, self._proc.sentinel], timeout)
        except OSError:
            self._dead = True
            raise ProcessDead(f"{self._describe()}: pipe closed") from None
        if conn in ready:
            try:
                data = conn.recv_bytes()
            except (EOFError, OSError):
                self._dead = True
                raise ProcessDead(f"{self._describe()}: pipe closed mid-call") from None
            try:
                kind, reply_id, payload = _unpack(data)
            except Exception as exc:  # noqa: BLE001 - short header, short body, bad pickle
                self.kill()
                raise ProcessDead(f"{self._describe()}: malformed frame ({exc!r})") from exc
            if req_id is not None and reply_id != req_id:
                self.kill()
                raise ProcessDead(
                    f"{self._describe()}: reply to request {reply_id}, expected {req_id}"
                )
            return kind, payload
        if ready:  # only the sentinel fired: the process exited under us
            self._dead = True
            raise ProcessDead(f"{self._describe()}: process exited (code {self._proc.exitcode})")
        # Timeout: the child is wedged (its control thread could not answer
        # either).  Kill it — leaving it alive would desynchronise the pipe:
        # the eventual late reply would answer the *next* request.
        self.kill()
        raise ProcessTimeout(f"{self._describe()}: no reply within {timeout:g}s (killed)")

    def _ensure_ready(self) -> None:
        if self._ready:
            return
        with self._control_lock:
            if self._ready:
                return
            kind, _ = self._recv(self._control_conn, self._ready_timeout)
            if kind != _MSG_READY:
                self._dead = True
                raise ProcessDead(f"{self._describe()}: expected READY, got message kind {kind}")
            self._ready = True
            self._last_beat = time.monotonic()

    def _control_rpc(self, kind: int, payload=None, timeout: Optional[float] = None):
        self._ensure_ready()
        if self._dead:
            raise ProcessDead(f"{self._describe()}: process is dead")
        with self._control_lock:
            req_id = self._next_id()
            try:
                _send(self._control_conn, kind, req_id, payload)
            except (BrokenPipeError, OSError):
                self._dead = True
                raise ProcessDead(f"{self._describe()}: control pipe closed") from None
            rkind, rpayload = self._recv(
                self._control_conn, self._call_timeout if timeout is None else timeout, req_id
            )
        if rkind == _MSG_ERROR:
            raise rpayload
        return rpayload

    # -- the ShardWorker surface -------------------------------------------------

    def predict(self, global_nodes: np.ndarray) -> np.ndarray:
        if self.retired:
            raise WorkerRetired(
                f"worker {self.worker_id} epoch {self.epoch} was retired by a rebuild"
            )
        if self._dead:
            raise ProcessDead(f"{self._describe()}: process is dead")
        nodes = np.asarray(global_nodes, dtype=np.int64)
        with self._gauge_lock:
            self._inflight += 1
            self.peak_inflight = max(self.peak_inflight, self._inflight)
        try:
            with self._rpc_lock:
                self._ensure_ready()
                if self._dead:
                    raise ProcessDead(f"{self._describe()}: process is dead")
                req_id = self._next_id()
                try:
                    _send(self._request_conn, _MSG_PREDICT, req_id, nodes)
                except (BrokenPipeError, OSError):
                    self._dead = True
                    raise ProcessDead(f"{self._describe()}: request pipe closed") from None
                kind, payload = self._recv(self._request_conn, self._call_timeout, req_id)
        finally:
            with self._gauge_lock:
                self._inflight -= 1
        if kind == _MSG_ERROR:
            raise payload
        with self._gauge_lock:
            self.batches_served += 1
            self.nodes_served += len(nodes)
        return payload

    def retire(self) -> None:
        """Rebuild replacement: mark retired and tear the process down."""
        self.retired = True
        self.close(timeout=0.0)

    # -- heartbeat / stats -------------------------------------------------------

    def maybe_heartbeat(self) -> None:
        """Ping the control channel if the liveness interval elapsed.

        Failure marks the handle dead (the next dispatch fails fast with
        :class:`ProcessDead`) without counting as a request-path failure —
        liveness and request health are separate signals.
        """
        if self.retired or self._dead or self._closed or not self._ready:
            return
        now = time.monotonic()
        if self._last_beat is not None and now - self._last_beat < HEARTBEAT_INTERVAL:
            return
        try:
            payload = self._control_rpc(_MSG_PING)
        except (ProcessDead, ProcessTimeout, OSError):
            return  # _dead is set; dispatch will observe it
        self._last_beat = time.monotonic()
        if isinstance(payload, dict):
            self._rss = payload.get("rss", self._rss)

    def sync(self, timeout: Optional[float] = None) -> bool:
        """Pull the child's stats/registry deltas into the parent mirrors."""
        if self.retired or self._dead or self._closed:
            return False
        try:
            payload = self._control_rpc(_MSG_SYNC, timeout=timeout)
        except (ProcessDead, ProcessTimeout, OSError):
            return False
        if not isinstance(payload, dict):
            return False
        if payload.get("cache_stats") is not None:
            self.cache_stats = payload["cache_stats"]
        if payload.get("halo_stats") is not None:
            self._halo_stats = payload["halo_stats"]
        if payload.get("timings"):
            self.timings.totals = dict(payload["timings"])
        self._rss = payload.get("rss", self._rss)
        self._last_beat = time.monotonic()
        snapshot = payload.get("registry")
        if snapshot and self._fleet_registry is not None:
            self._fleet_registry.merge_snapshot(snapshot)
        return True

    def bind_telemetry(self, stage_seconds, registry) -> None:
        """Merge the child's registry deltas into ``registry`` on each sync
        (the child feeds its own stage histograms)."""
        self._fleet_registry = registry

    def reset_stats(self) -> None:
        with self._gauge_lock:
            self.batches_served = 0
            self.nodes_served = 0
            self.peak_inflight = self._inflight
        self.cache_stats = CacheStats()
        self._halo_stats = CacheStats()
        self.timings.reset()
        if not self.retired and not self._dead and self._ready:
            try:
                self._control_rpc(_MSG_RESET)
            except (ProcessDead, ProcessTimeout, OSError):
                pass

    # -- teardown ----------------------------------------------------------------

    def kill(self) -> None:
        """SIGKILL the child (idempotent; real fault injection uses this)."""
        pid = self._proc.pid
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        self._dead = True
        self._proc.join(0.5)

    def close(self, timeout: float = 5.0) -> None:
        """Bounded teardown: graceful shutdown, escalating terminate → kill.

        Never hangs on a wedged child: the graceful join is bounded by
        ``timeout``, SIGTERM gets half a second, SIGKILL ends the matter.
        """
        if self._closed:
            return
        self._closed = True
        if self._proc.is_alive() and not self._dead and self._ready and timeout > 0:
            got = self._rpc_lock.acquire(timeout=min(timeout, 1.0))
            if got:
                try:
                    _send(self._request_conn, _MSG_SHUTDOWN, 0, None)
                except (BrokenPipeError, OSError):
                    pass
                finally:
                    self._rpc_lock.release()
                self._proc.join(timeout)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(0.5)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join(0.5)
        self._dead = True
        for conn in (self._request_conn, self._control_conn):
            try:
                conn.close()
            except OSError:
                pass


# ---------------------------------------------------------------------------
# The plane.
# ---------------------------------------------------------------------------


class ProcessPlane:
    """Owns the multi-process serving machinery for one InferenceServer.

    Publishes each shard's CSR/feature slabs into the arena once (replicas
    and respawns re-attach the same segments), builds the shared halo tier,
    spawns workers under a spawn (never fork) context, and sweeps every
    segment at shutdown.  Construction runs the stale-segment sweep, so a
    previously SIGKILL'd run's segments are reclaimed before new ones are
    created.
    """

    def __init__(
        self,
        graph: Graph,
        shards: List[GraphShard],
        model,
    ) -> None:
        self.graph = graph
        self.shards = shards
        self.model = model
        self.swept_stale = SharedSlabArena.sweep_stale()
        self.arena = SharedSlabArena()
        self._ctx = get_context("spawn")
        self._shard_segments: Dict[int, Dict[str, Tuple[str, Tuple[int, ...], str]]] = {}
        self.halo_store: Optional[SharedHaloStore] = None
        self._closed = False

    def _publish_shard(self, shard: GraphShard) -> Dict[str, Tuple[str, Tuple[int, ...], str]]:
        cached = self._shard_segments.get(shard.part_id)
        if cached is not None:
            return cached
        segments: Dict[str, Tuple[str, Tuple[int, ...], str]] = {}
        graph = shard.graph
        for field, array, dtype in (
            ("indptr", graph.indptr, np.int64),
            ("indices", graph.indices, np.int64),
            ("features", graph.features, np.float64),
        ):
            source = np.ascontiguousarray(np.asarray(array, dtype=dtype))
            name, view = self.arena.create(f"s{shard.part_id}-{field}", source.shape, dtype)
            view[...] = source
            segments[field] = (name, tuple(source.shape), np.dtype(dtype).str)
        self._shard_segments[shard.part_id] = segments
        return segments

    def build_halo_store(self) -> SharedHaloStore:
        """The fleet-shared store, slabs pre-allocated for layers 1..K."""
        layer_dims = {k: self.model.stored_width(k) for k in range(1, self.model.num_layers + 1)}
        self.halo_store = SharedHaloStore.create(self.arena, self.graph.num_nodes, layer_dims)
        return self.halo_store

    def spawn_worker(
        self,
        shard_id: int,
        worker_id: int,
        epoch: int,
        publish_mask: Optional[np.ndarray],
        private_store: bool,
    ) -> ProcessWorkerHandle:
        shard = self.shards[shard_id]
        segments = self._publish_shard(shard)
        graph = shard.graph
        if self.halo_store is not None:
            # Children serve the weights pickled at their spawn, so a spawn
            # under a new weight signature is a model refresh: drop the rows
            # the fleet published under the old one before this child can
            # gather them.
            self.halo_store.ensure_signature(self.model.weight_signature())
        spec = WorkerSpec(
            worker_id=worker_id,
            shard_id=shard_id,
            epoch=epoch,
            model=self.model,
            graph_name=graph.name,
            graph_segments=segments,
            labels=graph.labels,
            train_mask=graph.train_mask,
            val_mask=graph.val_mask,
            test_mask=graph.test_mask,
            core_nodes=shard.core_nodes,
            shard_nodes=shard.nodes,
            halo_hops=shard.halo_hops,
            halo=self.halo_store.spec if self.halo_store is not None else None,
            halo_publish_mask=publish_mask,
            private_store=private_store,
            num_nodes=self.graph.num_nodes,
        )
        request_parent, request_child = self._ctx.Pipe(duplex=True)
        control_parent, control_child = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_child_main,
            args=(spec, request_child, control_child),
            name=f"serving-worker-{worker_id}-e{epoch}",
            daemon=True,
        )
        process.start()
        request_child.close()
        control_child.close()
        return ProcessWorkerHandle(
            spec,
            process,
            request_parent,
            control_parent,
            shard,
            self.halo_store,
            CALL_TIMEOUT,
        )

    def heartbeat(self, workers) -> None:
        """Ping each worker at most every :data:`HEARTBEAT_INTERVAL`."""
        for worker in workers:
            worker.maybe_heartbeat()

    def shutdown(self) -> None:
        """Unlink every segment of the arena (children create none)."""
        if self._closed:
            return
        self._closed = True
        self.arena.unlink_all()
