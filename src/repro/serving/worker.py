"""Shard workers: execute micro-batches of per-node prediction requests.

A :class:`ShardWorker` owns one :class:`~repro.serving.shard.GraphShard` and
answers prediction requests for the shard's core nodes exactly, by layer-wise
inference restricted to the batch's receptive field.  For each layer ``k``
(output side first) the worker asks its LRU
:class:`~repro.serving.cache.EmbeddingCache` which layer-``k`` hidden states it
already knows; nodes it does not know are then offered to the shared
:class:`~repro.serving.cache.HaloStore` (when the server runs one), which
gathers boundary rows *another shard already computed*; only the remaining
misses are recomputed.  Each miss set becomes a
:class:`~repro.graph.Restriction` — a row slice of the frozen shard CSR with
columns remapped into the batch-local index space, built fresh per flush —
and the layer's ``forward_restricted`` runs a restricted SpMM / segment
reduction against the shard's *precomputed* propagation operators (warmed
once per worker at build time via ``prepare_full``).  No induced ``Graph`` is
built and no operator is re-normalised per flush.  Because every miss row's
full neighbourhood is inside the previous layer's needed set by construction,
the restricted rows are exactly what :meth:`repro.models.GNNModel.full_forward`
would produce on the whole graph — so served predictions match offline
full-graph evaluation, and cached (and halo-exchanged) rows can be reused
across batches and shards safely.

One exception to "every miss set becomes a plan": when the first layer's
aggregation reads no weight (``has_aggregation_weights`` is false — GCN's
``Â·X``), its rows depend on the frozen shard graph alone.  The worker
memoises them per incarnation and never drops them on a weight change, so
the layer-1 plan covers only the miss rows the memo does not know yet, and
every layer-1 miss then runs just the combination.  Memo rows come out of the
same restricted SpMM, so they are bitwise the rows it would recompute.
"""

from __future__ import annotations

import threading
from typing import List, Optional

import numpy as np

from ..graph.restriction import Restriction
from ..models.base import GNNModel
from ..tensor.tensor import Tensor, no_grad
from .cache import CacheStats, EmbeddingCache, HaloStore
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
    the in-process :class:`~repro.serving.replicas.Replica`."""

    #: ``None`` in-process: callers take a truthy ``pid`` for a worker process.
    pid = heartbeat_age = rss_bytes = None

    def __init__(
        self,
        worker_id: int,
        shard: GraphShard,
        model: GNNModel,
        cache,
        halo_store=None,
        halo_publish_mask: Optional[np.ndarray] = None,
        epoch: int = 0,
    ) -> None:
        self.worker_id = worker_id
        self.shard = shard
        self.model = model
        self.cache = cache
        #: Replica incarnation: 0 at server build, bumped by every rebuild of
        #: this worker slot.
        self.epoch = int(epoch)
        self.retired = False
        self.killed = False
        self.halo_store = halo_store
        # Defence in depth for the shared tier: only rows whose shard-CSR
        # neighbour list is *complete* (shard-local mask supplied by the
        # engine — exactly the rows the serving recursion legitimately
        # computes) may be published.  A future bug that computed a truncated
        # halo-edge row would corrupt one shard's batch, not propagate
        # server-wide.
        self._halo_publishable = (
            np.asarray(halo_publish_mask, dtype=bool)
            if self.halo_store is not None and halo_publish_mask is not None
            else None
        )
        self.timings = StageTimer()
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
            self._memo = np.empty((shard.graph.num_nodes, self._layer_dim(0)))
            self._memo_known = np.zeros(shard.graph.num_nodes, dtype=bool)
        # Parameter list cached once: computing the weight signature per flush
        # must not re-walk the module tree (Parameter objects are stable; only
        # their version counters move).
        self._parameters = model.parameters()
        # Load counters (read by ServerStats).
        self.batches_served = 0
        self.nodes_served = 0
        # A worker serves one batch at a time: the lock serialises concurrent
        # flushes dispatched to the same worker (its cache must see batches
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
        so attempts racing the swap cannot serve from (or warm the caches of)
        the corpse.
        """
        self.retired = True

    def predict(self, global_nodes: np.ndarray) -> np.ndarray:
        """Class predictions for a batch of (shard-core) global node ids."""
        if self.retired:
            raise WorkerRetired(
                f"worker {self.worker_id} epoch {self.epoch} was retired by a rebuild"
            )
        if self.killed:
            raise ReplicaDead(f"worker {self.worker_id} died (kill fault, in-process replica)")
        local = self.shard.to_local(np.asarray(global_nodes, dtype=np.int64))
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
                        logits = self._exact_logits(local)
                finally:
                    if was_training:
                        self.model.train(True)
                self.batches_served += 1
                self.nodes_served += len(local)
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
        """No-op: an in-process replica holds nothing outside the server."""

    def bind_telemetry(self, stage_seconds, registry) -> None:
        """Feed every flush stage into its ``(stage, worker)`` histogram."""
        self.timings.bind_histograms(stage_seconds, self.worker_id)

    def reset_stats(self) -> None:
        """Zero the load counters, cache stats and stage timings; the cache
        contents stay (warm state)."""
        with self._gauge_lock:
            self.batches_served = 0
            self.nodes_served = 0
            self.peak_inflight = self._inflight
        self.cache.stats = CacheStats()
        self.timings.reset()

    def weight_signature(self) -> tuple:
        """Parameter versions: cached rows are valid only under this value."""
        return tuple(param.version for param in self._parameters)

    def prewarm_from_halo(self) -> int:
        """Seed the private embedding cache from the shared halo tier.

        A rebuilt replica starts cold; the halo store still holds every exact
        boundary row the fleet computed, under the weight signature it was
        computed with.  Copying the in-shard subset over means the
        replacement's first flushes hit instead of recomputing the whole
        receptive field.  Returns the number of rows pre-warmed.
        """
        halo = self.halo_store
        cache = self.cache
        if halo is None or not getattr(cache, "enabled", False):
            return 0
        signature = halo.signature
        if signature is None:
            return 0  # nothing was ever published: cold start is all there is
        cache.ensure_signature(signature)
        warmed = 0
        shard_nodes = self.shard.nodes
        for layer in halo.layers():
            nodes, values = halo.resident(layer)
            if not len(nodes):
                continue
            held = np.isin(nodes, shard_nodes, assume_unique=True)
            if not held.any():
                continue
            cache.put(layer, nodes[held], values[held])
            warmed += int(held.sum())
        return warmed

    # -- exact inference ---------------------------------------------------------

    def _layer_dim(self, layer: int) -> int:
        return self.shard.graph.num_features if layer == 0 else self.model.layers[layer - 1].out_features

    def _exact_logits(self, seeds_local: np.ndarray) -> np.ndarray:
        """Compiled hot path: cache gathers + restricted SpMM, zero subgraphs.

        Works in shard-local node ids throughout; the cache (and the shared
        halo tier) are keyed on global ids so their contents mean the same
        thing across shards and restarts.  Per layer, a node's value comes
        from — in order — this worker's embedding cache, the cross-shard
        :class:`~repro.serving.cache.HaloStore` (boundary rows another shard
        already computed; promoted into the local cache on the way through so
        the next flush hits locally), or a restricted recompute over a freshly
        built :class:`~repro.graph.Restriction`.  For a weight-free first
        aggregation the layer-1 plan covers only the misses the memo does
        not know; the others reuse their memoised aggregated rows and run
        the combination alone.
        """
        graph = self.shard.graph
        num_layers = self.model.num_layers
        timer = self.timings
        halo = self.halo_store
        signature = self.weight_signature()
        self.cache.ensure_signature(signature)
        if halo is not None:
            halo.ensure_signature(signature)
            # Epoch capture for fault isolation: if a sibling replica fails
            # while this batch is in flight, the engine bumps the store's
            # epoch and every publish below is discarded — a possibly-dying
            # replica must not write into the shared tier.
            halo_epoch = halo.epoch

        # Sorted-unique seeds without np.unique's dispatch overhead (the
        # masked-array check alone costs more than this whole dedup).
        ordered = np.sort(seeds_local)
        if len(ordered) > 1:
            keep = np.empty(len(ordered), dtype=bool)
            keep[0] = True
            np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
            unique_seeds = ordered[keep]
        else:
            unique_seeds = ordered
        # Top-down pass: which layer-k values are missing, and which layer-(k-1)
        # values computing them will require.  Each miss set's Restriction is
        # obtained here and reused below — its column set *is* the next needed
        # set.  The caches report hits as positions into the lookup, so
        # shard-local ids and global cache keys never need a searchsorted
        # round-trip between index spaces.
        empty = np.empty(0, dtype=np.int64)
        needed: List[np.ndarray] = [empty] * (num_layers + 1)
        #: per layer: list of (positions-or-mask over needed[k], value rows)
        hit_parts: List[list] = [[] for _ in range(num_layers + 1)]
        miss_idx: List[np.ndarray] = [empty] * (num_layers + 1)
        miss_global: List[np.ndarray] = [empty] * (num_layers + 1)
        plans: List[Optional[Restriction]] = [None] * (num_layers + 1)
        needed[num_layers] = unique_seeds
        for k in range(num_layers, 0, -1):
            if not len(needed[k]):  # everything above fully hit: nothing to do
                continue
            nodes_global = self.shard.to_global(needed[k])
            with timer.stage("cache_gather"):
                hit_mask, hit_values = self.cache.take_mask(k, nodes_global)
            if len(hit_values):
                hit_parts[k].append((hit_mask, hit_values))
            if len(hit_values) == len(needed[k]):
                continue
            missing = np.where(~hit_mask)[0]
            if halo is not None:
                with timer.stage("halo_gather"):
                    halo_mask, halo_values = halo.take_mask(k, nodes_global[missing])
                if len(halo_values):
                    halo_positions = missing[halo_mask]
                    hit_parts[k].append((halo_positions, halo_values))
                    # Promote exchanged rows into the local cache: the next
                    # flush for them should not leave the worker.
                    with timer.stage("cache_scatter"):
                        self.cache.put(k, nodes_global[halo_positions], halo_values)
                    missing = missing[~halo_mask]
            if len(missing):
                miss_idx[k] = missing
                miss_global[k] = nodes_global[missing]
                rows = needed[k][missing]
                if k == 1 and self._memo is not None:
                    rows = rows[~self._memo_known[rows]]  # memoised rows need no features
                if len(rows):
                    with timer.stage("plan_build"):
                        plans[k] = Restriction(graph, rows)
                    needed[k - 1] = plans[k].cols

        # Bottom-up pass: raw features feed layer 1; each layer recomputes its
        # misses through its restricted operators, scattering them straight
        # into the assembly buffer the pre-gathered cache/halo rows already
        # occupy (the layers' ``out=`` contract).
        h_prev = np.asarray(graph.features[needed[0]], dtype=np.float64)
        for k in range(1, num_layers + 1):
            parts = hit_parts[k]
            if not len(miss_idx[k]):
                if len(parts) == 1:
                    # Fully hit from one tier: the gathered block already *is*
                    # this layer's output, in needed[k] order — no reassembly.
                    h_prev = parts[0][1]
                else:
                    values = np.empty((len(needed[k]), self._layer_dim(k)))
                    for positions, rows in parts:
                        values[positions] = rows
                    h_prev = values
                continue
            values = np.empty((len(needed[k]), self._layer_dim(k)))
            for positions, rows in parts:
                values[positions] = rows
            layer = self.model.layers[k - 1]
            if k == 1 and self._memo is not None:
                wanted = needed[1][miss_idx[1]]
                plan = plans[1]
                if plan is not None:  # rows the memo lacked: SpMM them in
                    aggregated = layer.aggregate_restricted(Tensor(h_prev), plan, timer)
                with timer.stage("aggregation"):
                    if plan is not None:
                        self._memo[plan.rows] = aggregated
                        self._memo_known[plan.rows] = True
                    # A plan over every wanted row already holds them in order;
                    # a second shard-sized copy would only raise peak memory.
                    if plan is None or plan.num_rows < len(wanted):
                        aggregated = self._memo[wanted]
                computed = layer.combine_restricted(aggregated, timer, out=(values, miss_idx[1])).data
            else:
                computed = layer.forward_restricted(
                    Tensor(h_prev), plans[k], timer=timer, out=(values, miss_idx[k])
                ).data
            with timer.stage("cache_scatter"):
                self.cache.put(k, miss_global[k], computed)
            if halo is not None:
                with timer.stage("halo_publish"):
                    if self._halo_publishable is not None:
                        publishable = self._halo_publishable[needed[k][miss_idx[k]]]
                        halo.publish(
                            k,
                            miss_global[k][publishable],
                            computed[publishable],
                            epoch=halo_epoch,
                        )
                    else:
                        halo.publish(k, miss_global[k], computed, epoch=halo_epoch)
            h_prev = values

        return h_prev[np.searchsorted(unique_seeds, seeds_local)]


class LocalPlane:
    """The in-process plane (``executor="serial"`` or ``"concurrent"``): the
    :class:`~repro.serving.procplane.ProcessPlane` surface, with nothing to
    publish, heartbeat or sweep."""

    swept_stale: tuple = ()

    def __init__(self, graph, shards: List[GraphShard], model: GNNModel) -> None:
        self.graph = graph
        self.shards = shards
        self.model = model
        self.halo_store: Optional[HaloStore] = None

    def build_halo_store(self, shared_nodes: np.ndarray) -> HaloStore:
        self.halo_store = HaloStore(self.graph.num_nodes, shared_nodes)
        return self.halo_store

    def spawn_worker(
        self, shard_id: int, worker_id: int, epoch: int, publish_mask, cache_capacity: int
    ) -> ShardWorker:
        return ShardWorker(
            worker_id,
            self.shards[shard_id],
            self.model,
            EmbeddingCache(cache_capacity, num_nodes=self.graph.num_nodes),
            halo_store=self.halo_store,
            halo_publish_mask=publish_mask,
            epoch=epoch,
        )

    def heartbeat(self, workers) -> None:
        """No-op: in-process replicas need no liveness probe."""

    def shutdown(self) -> None:
        """No-op: nothing outlives the server's own process."""
