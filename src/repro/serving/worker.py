"""Shard workers: execute micro-batches of per-node prediction requests.

A :class:`ShardWorker` owns one :class:`~repro.serving.shard.GraphShard` and
answers prediction requests for the shard's core nodes exactly, by layer-wise
inference restricted to the batch's receptive field.  A layer's rows — in
the store and in the assembly buffers — are what the next layer reads: its
hidden states, or, when the next layer combines first (GCN's narrowing
output layer, :attr:`~repro.models.base.GNNLayer.input_projection`), those
states already multiplied by the next layer's ``Wᵀ``
(:meth:`~repro.models.GNNModel.stored_rows`; 41 wide instead of 128 on
``rd2``).  For each layer ``k`` (output side first) the worker allocates
the layer's assembly buffer and asks its embedding store — a
:class:`~repro.serving.cache.HaloStore`, shared by the whole server when the
halo tier is on, private to the worker otherwise — which layer-``k`` rows
are already known.  The store
copies each known row straight into the buffer, at its lookup position, so a
hit is copied once; only the misses are recomputed, scattered into the same
buffer, and written back to that same store once.  A worker built without a
store (halo tier off, ``cache_capacity=0``) recomputes every row.  Each miss
set becomes a :class:`~repro.graph.Restriction` — a row slice of the frozen
shard CSR with columns remapped into the batch-local index space, built
fresh per flush — and the layer's ``forward_restricted`` runs a restricted
SpMM / segment reduction against the shard's *precomputed* propagation
operators (warmed once per worker at build time via ``prepare_full``).  No
induced ``Graph`` is built and no operator is re-normalised per flush.
Because every miss row's full neighbourhood is inside the previous layer's
needed set by construction, the restricted rows are exactly what
:meth:`repro.models.GNNModel.full_forward` would produce on the whole graph —
so served predictions match offline full-graph evaluation, and stored rows
can be reused across batches, shards and replicas safely.

Ids: the stores are keyed by global node id, and the worker takes the
batch's global ids as they come.  It checks them once against a boolean
mask of the nodes its shard holds (a node it does not hold raises
``KeyError``, whether or not a store knows its row), probes the top layer
with them, and translates to shard-local ids only the top-layer rows it must
recompute; below the top, plans are built and read in shard-local ids.  A
fully hit batch makes no translation at all.

One exception to "every miss set becomes a plan": when the first layer's
aggregation reads no weight (``has_aggregation_weights`` is false — GCN's
``Â·X``), its rows depend on the frozen shard graph alone.  The worker
memoises them per incarnation and never drops them on a weight change, so
the layer-1 plan covers only the miss rows the memo does not know yet, and
every layer-1 miss then runs just the combination.  Memo rows come out of the
same restricted SpMM, so they are bitwise the rows it would recompute.  The
combination reads the wanted rows from the memo itself, slab by slab
(:func:`repro.models.base.combine_rows`: gather, GEMM, bias and ReLU in
place, the next layer's projection GEMM when it combines first, scatter
into the buffer), on one slab per core from
:data:`~repro.models.base.SLAB_MIN_ROWS` rows up, so a cold window's large
layer-1 call uses every core.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional

import numpy as np

from ..graph.restriction import Restriction
from ..models.base import GNNModel
from ..tensor.tensor import Tensor, no_grad
from .cache import CacheStats, HaloStore
from .faults import ReplicaDead
from .shard import GraphShard
from .timing import StageTimer

__all__ = ["LocalPlane", "ShardWorker", "WorkerRetired"]

class WorkerRetired(RuntimeError):
    """Dispatch against a worker a rebuild already replaced.

    Raised by :meth:`ShardWorker.predict` once :meth:`ShardWorker.retire` has
    run: an in-flight attempt that still holds a reference to the corpse
    fails cleanly into the engine's normal retry path instead of computing on
    (and publishing from) a replica that is no longer registered.
    """


class ShardWorker:
    """Serves prediction requests for one shard (optionally one of R replicas):
    the in-process :class:`~repro.serving.replicas.Replica`.

    ``clock`` times the stages (:class:`StageTimer`); it is read twice per
    stage, so a clock whose reads have side effects (a test clock that
    steps on every read) moves that many more times per batch, and can
    change which requests come due.
    """

    #: ``None`` in-process: callers take a truthy ``pid`` for a worker process.
    pid = heartbeat_age = rss_bytes = None

    def __init__(
        self,
        worker_id: int,
        shard: GraphShard,
        model: GNNModel,
        store: Optional[HaloStore] = None,
        halo_publish_mask: Optional[np.ndarray] = None,
        epoch: int = 0,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.worker_id = worker_id
        self.shard = shard
        self.model = model
        #: The one embedding store this worker reads and writes (``None``:
        #: every row is recomputed).
        self.store = store
        #: This worker's own lookup counts, whichever store answers; the
        #: invalidations are weight-signature changes it has seen.
        self.cache_stats = CacheStats()
        self._signature: Optional[tuple] = None
        #: Replica incarnation: 0 at server build, bumped by every rebuild of
        #: this worker slot.
        self.epoch = int(epoch)
        self.retired = False
        self.killed = False
        # Defence in depth for the shared tier: only rows whose shard-CSR
        # neighbour list is *complete* (shard-local mask supplied by the
        # engine — exactly the rows the serving recursion legitimately
        # computes) may be published.  A future bug that computed a truncated
        # halo-edge row would corrupt one shard's batch, not propagate
        # server-wide.
        self._halo_publishable = (
            np.asarray(halo_publish_mask, dtype=bool) if halo_publish_mask is not None else None
        )
        # Stage seconds read ``clock``: the server's clock in process (so a
        # ``ManualClock`` run traces the same stages every time), the
        # default ``perf_counter`` in a worker process, which has no handle
        # on the server's clock.
        self.timings = StageTimer(clock)
        # The ownership guard: held[v] is true for every global id v the
        # shard holds (core and halo), up to the largest; a batch's ids are
        # checked with one gather before anything is looked up.
        self._held = np.zeros(int(shard.nodes[-1]) + 1 if len(shard.nodes) else 0, dtype=bool)
        self._held[shard.nodes] = True
        if shard.graph.num_nodes:
            # Shard operator plan: normalise every propagation operator the
            # model's inference needs once, at build time, so the first flush
            # is as cheap as the thousandth.
            for layer in model.layers:
                layer.prepare_full(shard.graph)
        # Weight-free first aggregation: Â·X rows for shard-local nodes,
        # filled lazily (never precomputed — a full-shard SpMM at build
        # would dominate setup) and valid under every weight version.
        self._memo: Optional[np.ndarray] = None
        if shard.graph.num_nodes and not model.layers[0].has_aggregation_weights:
            self._memo = np.empty((shard.graph.num_nodes, shard.graph.num_features))
            self._memo_known = np.zeros(shard.graph.num_nodes, dtype=bool)
        # Parameter list cached once: computing the weight signature per flush
        # must not re-walk the module tree (Parameter objects are stable; only
        # their version counters move).
        self._parameters = model.parameters()
        # Load counters (read by ServerStats).
        self.batches_served = 0
        self.nodes_served = 0
        # A worker serves one batch at a time: the lock serialises concurrent
        # flushes dispatched to the same worker (its store must see batches
        # in order), while distinct workers run in parallel.
        self._lock = threading.Lock()
        self._gauge_lock = threading.Lock()
        self._inflight = 0
        self.peak_inflight = 0

    # -- public API ------------------------------------------------------------

    @property
    def inflight(self) -> int:
        """Batches currently inside ``predict`` (rolling-restart drain gate)."""
        with self._gauge_lock:
            return self._inflight

    def retire(self) -> None:
        """Mark this incarnation dead: every later ``predict`` raises.

        Called by the rebuild right before the replacement is registered,
        so attempts racing the swap cannot serve from (or publish into the
        store of) the corpse.
        """
        self.retired = True

    def predict(self, global_nodes: np.ndarray) -> np.ndarray:
        """Class predictions for a batch of (shard-core) global node ids.

        Raises ``KeyError`` when the batch names a node the shard does not
        hold, whether or not the store knows its row.
        """
        if self.retired:
            raise WorkerRetired(
                f"worker {self.worker_id} epoch {self.epoch} was retired by a rebuild"
            )
        if self.killed:
            raise ReplicaDead(f"worker {self.worker_id} died (kill fault, in-process replica)")
        nodes = np.asarray(global_nodes, dtype=np.int64)
        with self._gauge_lock:
            self._inflight += 1
            self.peak_inflight = max(self.peak_inflight, self._inflight)
        try:
            with self._lock:
                # Standalone-use guard only: when driven by InferenceServer the
                # engine's _serving_mode already pinned eval/no-grad for the
                # whole round (concurrent flushes must never see the training
                # flag transition), so the module-tree walk is skipped entirely
                # in the common case.
                was_training = self.model.training
                if was_training:
                    self.model.eval()
                try:
                    with no_grad():
                        logits = self._exact_logits(nodes)
                finally:
                    if was_training:
                        self.model.train(True)
                self.batches_served += 1
                self.nodes_served += len(nodes)
        finally:
            with self._gauge_lock:
                self._inflight -= 1
        return logits.argmax(axis=-1)

    @property
    def halo_stats(self) -> CacheStats:
        """Empty: the shared halo tier counts in-process gathers itself."""
        return CacheStats()

    def kill(self) -> None:
        """The in-process stand-in for a SIGKILL: every later ``predict``
        raises :class:`~repro.serving.faults.ReplicaDead`."""
        self.killed = True

    def maybe_heartbeat(self) -> None:
        """No-op: an in-process replica lives as long as the server."""

    def sync(self, timeout: Optional[float] = None) -> bool:
        """No-op: the counters are read in place."""
        return True

    def close(self, timeout: float = 5.0) -> None:
        """Drop the store and the first-layer memo now, not when the cyclic
        garbage collector next runs: a private store's slabs are freed, a
        shared one stays with the server (the stats stay readable)."""
        self.store = None
        self._memo = None

    def bind_telemetry(self, stage_seconds, registry) -> None:
        """Feed every flush stage into its ``(stage, worker)`` histogram."""
        self.timings.bind_histograms(stage_seconds, self.worker_id)

    def reset_stats(self) -> None:
        """Zero the load counters, lookup counts and stage timings; the
        store's contents stay (warm state)."""
        with self._gauge_lock:
            self.batches_served = 0
            self.nodes_served = 0
            self.peak_inflight = self._inflight
        self.cache_stats = CacheStats()
        self.timings.reset()

    def weight_signature(self) -> tuple:
        """Parameter versions: cached rows are valid only under this value."""
        return tuple(param.version for param in self._parameters)

    # -- exact inference ---------------------------------------------------------

    def _lookup(self, store: Optional[HaloStore], layer: int, nodes: np.ndarray, out: np.ndarray):
        """``(hit mask over nodes, hit count)``; the hit rows are copied
        from this worker's store straight into ``out``, the layer's
        assembly buffer (nothing hits without a store).

        The worker's own ``cache_stats`` counts the lookup: hits are rows
        served, misses are rows it will recompute.
        """
        if store is None:
            hit, hits = np.zeros(len(nodes), dtype=bool), 0
        else:
            hit, hits = store.gather(layer, nodes, out)
        stats = self.cache_stats
        stats.hits += hits
        stats.misses += len(nodes) - hits
        return hit, hits

    def _store(self, store: HaloStore, layer: int, rows: np.ndarray, nodes: np.ndarray,
               values, epoch) -> None:
        """Write the computed ``values`` (shard-local ``rows``, global
        ``nodes``) once, into the store :meth:`_lookup` reads."""
        if self._halo_publishable is not None:
            complete = self._halo_publishable[rows]
            if not complete.all():  # a row that fails the defence is not stored
                nodes, values = nodes[complete], values[complete]
        self.cache_stats.insertions += store.publish(layer, nodes, values, epoch=epoch)

    def _unique_held(self, seeds: np.ndarray) -> np.ndarray:
        """The batch's distinct global ids, sorted; ``KeyError`` if the
        shard does not hold one of them (one gather on the held mask)."""
        # Sorted-unique seeds without np.unique's dispatch overhead (the
        # masked-array check alone costs more than this whole dedup).
        ordered = seeds.copy()
        ordered.sort()
        if len(ordered) > 1:
            keep = np.empty(len(ordered), dtype=bool)
            keep[0] = True
            np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
            ordered = ordered[keep]
        if len(ordered):
            held = self._held
            # Sorted, so the ends bound every id: no reduction for the range.
            inside = ordered[0] >= 0 and ordered[-1] < len(held)
            if not (inside and held[ordered].all()):
                in_range = (ordered >= 0) & (ordered < len(held))
                in_range[in_range] = held[ordered[in_range]]
                raise KeyError(
                    f"nodes {ordered[~in_range].tolist()} are not held by shard "
                    f"{self.shard.part_id}"
                )
        return ordered

    def _combine_memo(self, layer, h_prev: np.ndarray, plan: Optional[Restriction],
                      wanted: np.ndarray, out) -> np.ndarray:
        """Layer 1 over a weight-free aggregation: SpMM the rows the memo
        lacks into it (``plan``), then combine the ``wanted`` rows, reading
        them from the memo inside the combination's slabs (and projecting
        them for layer 2 when it combines first)."""
        timer = self.timings
        project = self.model.stored_projection(1)
        if plan is not None:
            aggregated = layer.aggregate_restricted(Tensor(h_prev), plan, timer)
            with timer.stage("aggregation"):
                self._memo[plan.rows] = aggregated
                self._memo_known[plan.rows] = True
            # A plan over every wanted row already holds them in order.
            if plan.num_rows == len(wanted):
                return layer.combine_restricted(aggregated, timer, out=out, project=project).data
        return layer.combine_restricted(
            self._memo, timer, out=out, index=wanted, project=project
        ).data

    def _exact_logits(self, seeds: np.ndarray) -> np.ndarray:
        """Compiled hot path: store gathers + restricted SpMM, zero subgraphs.

        Takes the batch's global ids.  The stores are keyed on global ids
        (their contents mean the same thing across shards and restarts), so
        the top layer is probed with the batch's ids as they come, and
        shard-local ids are made only for the top-layer rows that missed;
        below the top, the plans' columns are shard-local and are translated
        to global ids for each lookup.  Per layer, a node's value comes from
        the worker's one store (one :meth:`_lookup`) or a restricted
        recompute over a freshly built :class:`~repro.graph.Restriction`,
        whose rows are then stored once (one :meth:`_store`).  For a
        weight-free first aggregation the layer-1 plan covers only the
        misses the memo does not know; the others reuse their memoised
        aggregated rows and run the combination alone.
        """
        unique_seeds = self._unique_held(seeds)
        shard = self.shard
        graph = shard.graph
        num_layers = self.model.num_layers
        if not len(unique_seeds):
            return np.empty((0, self.model.stored_width(num_layers)))
        timer = self.timings
        store = self.store
        signature = self.weight_signature()
        if signature != self._signature:
            if self._signature is not None:
                self.cache_stats.invalidations += 1
            self._signature = signature
        epoch = None
        if store is not None:
            store.ensure_signature(signature)
            # Epoch capture for fault isolation: if a sibling replica fails
            # while this batch is in flight, the engine bumps the store's
            # epoch and every publish below is discarded — a possibly-dying
            # replica must not write into the shared store.
            epoch = store.epoch

        # Top-down pass: which layer-k values are missing, and which layer-(k-1)
        # values computing them will require.  Each miss set's Restriction is
        # obtained here and reused below — its column set *is* the next needed
        # set (shard-local).  Each layer's assembly buffer is allocated here
        # and the store copies the hits straight into it; it reports them as
        # a mask over the lookup, so hits and misses split with plain mask
        # indexing.  A fully hit layer needs nothing below it: the pass stops
        # there (``lowest``).
        empty = np.empty(0, dtype=np.int64)
        #: per layer below the top: the shard-local ids the layer needs
        needed: List[np.ndarray] = [empty] * (num_layers + 1)
        #: per layer: the assembly buffer, one row per needed value in
        #: lookup order (hit rows already in place)
        buffers: List[Optional[np.ndarray]] = [None] * (num_layers + 1)
        miss_idx: List[np.ndarray] = [empty] * (num_layers + 1)
        miss_local: List[np.ndarray] = [empty] * (num_layers + 1)
        miss_global: List[np.ndarray] = [empty] * (num_layers + 1)
        plans: List[Optional[Restriction]] = [None] * (num_layers + 1)
        lowest = 1
        for k in range(num_layers, 0, -1):
            nodes_global = unique_seeds if k == num_layers else shard.to_global(needed[k])
            buffer = buffers[k] = np.empty((len(nodes_global), self.model.stored_width(k)))
            if not len(nodes_global):  # the plan above needs no rows here
                continue
            with timer.stage("cache_gather"):
                hit_mask, hits = self._lookup(store, k, nodes_global, buffer)
            if hits == len(nodes_global):
                lowest = k
                break
            missing = np.flatnonzero(~hit_mask)
            miss_idx[k] = missing
            miss_global[k] = nodes_global[missing]
            rows = miss_local[k] = (
                shard.to_local(miss_global[k]) if k == num_layers else needed[k][missing]
            )
            if k == 1 and self._memo is not None:
                rows = rows[~self._memo_known[rows]]  # memoised rows need no features
            if len(rows):
                with timer.stage("plan_build"):
                    plans[k] = Restriction(graph, rows)
                needed[k - 1] = plans[k].cols

        # Bottom-up pass: raw features feed layer 1; each layer recomputes its
        # misses through its restricted operators, scattering them straight
        # into the assembly buffer the gathered rows already occupy (the
        # layers' ``out=`` contract).  A fully hit layer's buffer already *is*
        # its output, in lookup order.
        if lowest == 1:
            h_prev = np.asarray(graph.features[needed[0]], dtype=np.float64)
        for k in range(lowest, num_layers + 1):
            values = buffers[k]
            if len(miss_idx[k]):
                layer = self.model.layers[k - 1]
                assembly = (values, miss_idx[k])
                if k == 1 and self._memo is not None:
                    computed = self._combine_memo(layer, h_prev, plans[1], miss_local[1], assembly)
                else:
                    computed = layer.forward_restricted(
                        Tensor(h_prev), plans[k], timer=timer, out=assembly,
                        project=self.model.stored_projection(k),
                    ).data
                if store is not None:
                    with timer.stage("cache_scatter"):
                        self._store(store, k, miss_local[k], miss_global[k], computed, epoch)
            h_prev = values

        return h_prev[unique_seeds.searchsorted(seeds)]


class LocalPlane:
    """The in-process plane (``executor="serial"`` or ``"concurrent"``): the
    :class:`~repro.serving.procplane.ProcessPlane` surface, with nothing to
    publish, heartbeat or sweep."""

    swept_stale: tuple = ()

    def __init__(
        self, graph, shards: List[GraphShard], model: GNNModel, clock: Callable[[], float]
    ) -> None:
        self.graph = graph
        self.shards = shards
        self.model = model
        #: What every spawned worker's :class:`StageTimer` reads: the
        #: server's ``clock.now``.
        self.clock = clock
        self.halo_store: Optional[HaloStore] = None

    def build_halo_store(self) -> HaloStore:
        self.halo_store = HaloStore(self.graph.num_nodes)
        return self.halo_store

    def spawn_worker(
        self, shard_id: int, worker_id: int, epoch: int, publish_mask, private_store: bool
    ) -> ShardWorker:
        """A worker on the shared store when there is one; otherwise on a
        private store of its own (``private_store``) or on none."""
        store = self.halo_store
        if store is None and private_store:
            store = HaloStore(self.graph.num_nodes)
        return ShardWorker(
            worker_id,
            self.shards[shard_id],
            self.model,
            store,
            halo_publish_mask=publish_mask,
            epoch=epoch,
            clock=self.clock,
        )

    def heartbeat(self, workers) -> None:
        """No-op: in-process replicas need no liveness probe."""

    def shutdown(self) -> None:
        """No-op: nothing outlives the server's own process."""
