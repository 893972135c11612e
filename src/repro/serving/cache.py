"""Versioned per-layer embedding caches: the slab-allocated per-shard cache and the halo tier.

Exact per-node inference recomputes the same hidden states over and over when
requests' receptive fields overlap (the power-law access pattern GNNIE
exploits with its degree-aware cache).  Both stores here memoise layer-``k``
hidden vectors per *global* node id so a warm request touches only the layers
whose inputs are not already known.

:class:`EmbeddingCache` is the per-shard cache: an array-backed store with
one contiguous ``(capacity, dim)`` float64 slab plus an int64 node→slot index
map per layer, so a lookup is a single vectorised gather and an insert a
single scatter — no per-row Python loop, no ``OrderedDict`` walking, no
``np.stack`` of row lists.  Retention is exact least-recently-used via
monotone access stamps: observationally equivalent to a per-row
``OrderedDict`` LRU (same hits, misses, eviction victims and final contents
on any take/insert sequence; the hypothesis suite in
``tests/serving/test_cache_equivalence.py`` checks it against one).

:class:`HaloStore` is the cross-shard companion: a shared, versioned slab
tier holding per-layer embeddings of the *boundary* (halo) nodes held by more
than one worker, so a row computed during shard A's flush is gathered — not
recomputed — by shard B's.

Invalidation (both classes) follows the discipline introduced with the
spectral weight cache of :class:`repro.nn.BlockCirculantLinear`: every cached
value is tied to the model's *weight signature* — the tuple of
``Parameter.version`` counters (see :meth:`repro.nn.Module.weight_signature`).
A training step bumps the versions, the signature changes, and the whole
cache is dropped on the next access, so serving can never return embeddings
computed with stale weights.  The slab cache keeps its slabs allocated across
invalidations — a weight update costs two ``fill`` calls per layer, not a
re-allocation storm.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "CacheStats",
    "EmbeddingCache",
    "HaloStore",
]


@dataclass
class CacheStats:
    """Counters describing cache effectiveness."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    invalidations: int = 0
    discarded: int = 0  # publishes dropped by the halo epoch guard

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Element-wise sum (used to aggregate per-worker stats)."""
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            insertions=self.insertions + other.insertions,
            evictions=self.evictions + other.evictions,
            invalidations=self.invalidations + other.invalidations,
            discarded=self.discarded + other.discarded,
        )

    def as_dict(self) -> dict:
        """Event-name → count view (the telemetry gauge mirror exports this)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "discarded": self.discarded,
        }


class _LayerSlab:
    """One layer's storage: contiguous value slab + node↔slot index maps."""

    __slots__ = ("dim", "strict", "slab", "slot_nodes", "stamps", "slot_of", "_free", "_free_top")

    def __init__(
        self,
        capacity: int,
        dim: int,
        num_nodes: int,
        strict: bool = False,
        slab: Optional[np.ndarray] = None,
    ) -> None:
        self.dim = dim
        # ``strict`` callers (the engine, which sizes num_nodes to the graph)
        # promise every looked-up id is < num_nodes, so lookup can be a bare
        # gather with no clipping.
        self.strict = strict
        if slab is not None:
            # Caller-provided storage (e.g. a shared-memory view); only the
            # value slab moves — the index maps stay process-private.
            if slab.shape != (capacity, dim) or slab.dtype != np.float64:
                raise ValueError(
                    f"pre-built slab must be float64 ({capacity}, {dim}), "
                    f"got {slab.dtype} {slab.shape}"
                )
            self.slab = slab
        else:
            self.slab = np.empty((capacity, dim), dtype=np.float64)
        self.slot_nodes = np.full(capacity, -1, dtype=np.int64)
        self.stamps = np.zeros(capacity, dtype=np.int64)
        self.slot_of = np.full(num_nodes, -1, dtype=np.int64)
        # Free slots as a fixed-size int64 stack (no Python list: building one
        # per layer costs milliseconds at realistic capacities).
        self._free = np.arange(capacity - 1, -1, -1, dtype=np.int64)
        self._free_top = capacity

    def ensure_nodes(self, limit: int) -> None:
        """Grow the node→slot map to cover ids below ``limit`` (amortised)."""
        if limit <= len(self.slot_of):
            return
        grown = np.full(max(limit, 2 * len(self.slot_of)), -1, dtype=np.int64)
        grown[: len(self.slot_of)] = self.slot_of
        self.slot_of = grown

    def lookup(self, nodes: np.ndarray) -> np.ndarray:
        """Slot of every node (-1 when absent), tolerating unseen large ids."""
        if self.strict:
            return self.slot_of[nodes]
        clipped = np.minimum(nodes, len(self.slot_of) - 1)
        slots = self.slot_of[clipped]
        return np.where(clipped == nodes, slots, -1)

    def allocate(self, count: int) -> np.ndarray:
        if count == 0:
            return np.empty(0, dtype=np.int64)
        if count > self._free_top:  # the global capacity invariant precludes this
            raise RuntimeError("layer slab out of free slots despite capacity bound")
        self._free_top -= count
        return self._free[self._free_top: self._free_top + count].copy()

    def release(self, slots: np.ndarray) -> None:
        self.slot_of[self.slot_nodes[slots]] = -1
        self.slot_nodes[slots] = -1
        self._free[self._free_top: self._free_top + len(slots)] = slots
        self._free_top += len(slots)

    def reset(self) -> None:
        self.slot_nodes.fill(-1)
        self.slot_of.fill(-1)
        capacity = len(self.slot_nodes)
        self._free = np.arange(capacity - 1, -1, -1, dtype=np.int64)
        self._free_top = capacity


class EmbeddingCache:
    """Slab-allocated ``(layer, node) -> hidden vector`` cache.

    ``capacity`` bounds the number of cached vectors across all layers
    (``0`` disables the cache entirely).
    :meth:`take` returns hit rows as one freshly-gathered 2-D array, so later
    insertions or evictions cannot corrupt an in-flight batch.

    ``num_nodes`` (when known — the serving engine passes the graph size)
    pre-sizes the node→slot maps; without it they grow on demand.  Nodes
    inside one :meth:`put` call must be distinct — the serving protocol
    (misses of a preceding :meth:`take`) guarantees it, and the batch
    refresh/insert semantics are only well-defined under it.

    Thread-safe: every operation holds an internal ``RLock``.
    """

    def __init__(
        self,
        capacity: int,
        num_nodes: Optional[int] = None,
        allocator: Optional[Callable[[int, Tuple[int, int]], np.ndarray]] = None,
    ) -> None:
        if capacity < 0:
            raise ValueError("cache capacity must be non-negative")
        self.capacity = int(capacity)
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._layers: Dict[int, _LayerSlab] = {}
        # Optional hook: ``allocator(layer, shape) -> float64 ndarray`` backs
        # a layer's value slab with caller-owned storage (the multi-process
        # plane hands out shared-memory views here).
        self._allocator = allocator
        self._signature: Optional[Hashable] = None
        # With a known node-id universe the per-layer lookup is a bare gather
        # and inserts skip the grow-on-demand bound check.
        self._strict = num_nodes is not None
        self._num_nodes = int(num_nodes) if num_nodes is not None else 64
        self._size = 0
        self._tick = 0

    def __len__(self) -> int:
        return self._size

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    # -- versioning -----------------------------------------------------------

    def ensure_signature(self, signature: Hashable) -> bool:
        """Drop every entry if the weight signature changed since last use.

        Returns ``True`` when an invalidation happened.  The first call simply
        records the signature (an empty cache has nothing stale in it).
        """
        with self._lock:
            if self._signature is None:
                self._signature = signature
                return False
            if signature == self._signature:
                return False
            self._drop_entries()
            self._signature = signature
            self.stats.invalidations += 1
            return True

    def clear(self) -> None:
        with self._lock:
            self._drop_entries()

    def _drop_entries(self) -> None:
        for store in self._layers.values():
            store.reset()
        self._size = 0

    # -- lookup / insert --------------------------------------------------------

    def take(self, layer: int, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split ``nodes`` into cache hits and misses for ``layer``.

        Returns ``(hit_nodes, hit_values, miss_nodes)`` where ``hit_values``
        is a ``(len(hit_nodes), dim)`` array gathered out of the slab in one
        fancy-index (already a copy).  Hits are stamped most-recent in node
        order; stats are updated here and only here.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        hit_mask, values = self.take_mask(layer, nodes)
        return nodes[hit_mask], values, nodes[~hit_mask]

    def take_mask(self, layer: int, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`take` returning a boolean *hit mask over* ``nodes``.

        ``(hit_mask, hit_values)`` — ``hit_values`` rows correspond to the
        masked positions in order.  A caller that already owns ``nodes`` in
        another index space (the worker's shard-local ids) recovers hits and
        misses with plain mask indexing: no ``searchsorted`` round-trip
        through global ids on the hot path.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        with self._lock:
            store = self._layers.get(layer) if self.enabled else None
            if store is None:
                self.stats.misses += len(nodes)
                return np.zeros(len(nodes), dtype=bool), np.empty((0, 0), dtype=np.float64)
            slots = store.lookup(nodes)
            hit = slots >= 0
            hit_slots = slots[hit]
            values = store.slab[hit_slots]  # single gather (fresh array)
            store.stamps[hit_slots] = self._tick + np.arange(len(hit_slots), dtype=np.int64)
            self._tick += len(hit_slots)
            self.stats.hits += len(hit_slots)
            self.stats.misses += len(nodes) - len(hit_slots)
            return hit, values

    def put(self, layer: int, nodes: Sequence[int], values: np.ndarray) -> None:
        """Insert one hidden vector per (distinct) node, evicting if full.

        Entries already present are refreshed in place; new entries claim free
        slots, displacing the least-recently-used entries when the global
        capacity would be exceeded.  A put larger than the whole cache evicts
        its own earliest rows, counted as inserted-then-evicted without
        touching the slab — what a per-row ``OrderedDict`` LRU would do.
        """
        if not self.enabled:
            return
        nodes = np.asarray(nodes, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or len(values) != len(nodes):
            raise ValueError("values must be a (len(nodes), dim) array")
        if len(nodes) == 0:
            return
        with self._lock:
            store = self._layers.get(layer)
            if store is None:
                slab = (
                    self._allocator(layer, (self.capacity, values.shape[1]))
                    if self._allocator is not None
                    else None
                )
                store = _LayerSlab(
                    self.capacity, values.shape[1], self._num_nodes, strict=self._strict, slab=slab
                )
                self._layers[layer] = store
            elif store.dim != values.shape[1]:
                raise ValueError(
                    f"layer {layer} slab holds {store.dim}-dim vectors, got {values.shape[1]}"
                )
            if not self._strict:
                store.ensure_nodes(int(nodes.max()) + 1)
            slots = store.lookup(nodes)
            existing = slots >= 0
            stamps = self._tick + np.arange(len(nodes), dtype=np.int64)
            self._tick += len(nodes)
            if existing.any():
                refreshed = slots[existing]
                store.slab[refreshed] = values[existing]
                store.stamps[refreshed] = stamps[existing]
            self.stats.insertions += len(nodes)
            fresh = ~existing
            n_new = int(fresh.sum())
            if n_new == 0:
                return
            overflow = self._size + n_new - self.capacity
            if overflow > 0:
                fresh = self._evict(overflow, stamps, fresh)
            survivors = np.where(fresh)[0]
            if len(survivors) == 0:
                return
            new_slots = store.allocate(len(survivors))
            store.slab[new_slots] = values[survivors]
            store.slot_nodes[new_slots] = nodes[survivors]
            store.stamps[new_slots] = stamps[survivors]
            store.slot_of[nodes[survivors]] = new_slots
            self._size += len(survivors)

    def _evict(
        self, overflow: int, incoming_stamps: np.ndarray, fresh: np.ndarray
    ) -> np.ndarray:
        """Select and free ``overflow`` victims; return the surviving mask.

        Candidates are every stored entry plus the incoming fresh entries,
        ranked by access stamp alone — exactly an ``OrderedDict`` LRU's order,
        since stamps are globally monotone.
        """
        layer_keys = list(self._layers)
        slot_lists: List[np.ndarray] = []
        stamp_parts: List[np.ndarray] = []
        owner_parts: List[np.ndarray] = []
        for index, key in enumerate(layer_keys):
            store = self._layers[key]
            used = np.where(store.slot_nodes >= 0)[0]
            slot_lists.append(used)
            stamp_parts.append(store.stamps[used])
            owner_parts.append(np.full(len(used), index, dtype=np.int64))
        fresh_idx = np.where(fresh)[0]
        slot_lists.append(fresh_idx)  # positions into the put batch
        stamp_parts.append(incoming_stamps[fresh_idx])
        owner_parts.append(np.full(len(fresh_idx), -1, dtype=np.int64))

        slots_all = np.concatenate(slot_lists)
        stamps_all = np.concatenate(stamp_parts)
        owners_all = np.concatenate(owner_parts)
        # Victim *set* = the `overflow` oldest stamps; only the set matters
        # (stamps are unique), so an O(n) partial partition replaces a sort.
        if overflow < len(stamps_all):
            victims = np.argpartition(stamps_all, overflow - 1)[:overflow]
        else:
            victims = np.arange(len(stamps_all))
        self.stats.evictions += overflow
        survivors = fresh.copy()
        for index, key in enumerate(layer_keys):
            mask = owners_all[victims] == index
            if mask.any():
                store = self._layers[key]
                store.release(slots_all[victims[mask]])
                self._size -= int(mask.sum())
        dropped_incoming = owners_all[victims] == -1
        if dropped_incoming.any():
            survivors[slots_all[victims[dropped_incoming]]] = False
        return survivors

    def contains(self, layer: int, node: int) -> bool:
        """Membership check that does not touch recency order or stats."""
        with self._lock:
            store = self._layers.get(layer)
            if store is None:
                return False
            return store.lookup(np.asarray([int(node)], dtype=np.int64))[0] >= 0


class HaloStore:
    """Shared, versioned slab tier of boundary ("halo") embeddings.

    Neighbouring shards overlap: every node within K hops of a partition cut
    is held — and, without exchange, independently recomputed — by each shard
    whose halo contains it.  A single ``HaloStore`` is shared by all of a
    server's workers; a worker *publishes* the layer-``k`` rows it computed
    for boundary nodes and *gathers* boundary rows another shard already
    computed, so a node computed by shard A is never recomputed by shard B.

    Storage is a dense per-layer slab over the fixed eligible-node set (the
    nodes held by two or more workers), with a presence bitmap instead of an
    eviction policy: the set is known at server build, bounded by the cut
    size, and every row in it is exact (bitwise equal to full-graph
    inference), so nothing ever needs replacing — memory is
    ``num_shared x dim`` floats per layer, allocated lazily on first publish.

    Versioning follows :class:`EmbeddingCache`: entries are tied to the
    model's weight signature and dropped wholesale (two ``fill`` calls per
    layer, slabs stay allocated) when a training step changes it.  Stats
    count *eligible* lookups only — a non-boundary node can never be
    exchanged, and counting it would misstate the tier's effectiveness.

    Fault isolation: the store carries an *epoch* that the engine bumps
    whenever a replica fails mid-flush.  Workers capture the epoch before
    computing and pass it to :meth:`publish`; a publish whose epoch is stale
    is discarded (counted in ``stats.discarded``), so rows computed alongside
    a failure — possibly by a replica that is itself dying — can never enter
    the shared tier after the failure was observed.  Together with the
    complete-row filter (only fully computed boundary rows are ever offered)
    this keeps the tier exact even under fault injection.

    Thread-safe: workers on different executor threads publish and gather
    concurrently under an internal ``RLock``.
    """

    def __init__(self, num_nodes: int, shared_nodes: np.ndarray) -> None:
        shared_nodes = np.unique(np.asarray(shared_nodes, dtype=np.int64))
        if len(shared_nodes) and (shared_nodes[0] < 0 or shared_nodes[-1] >= num_nodes):
            raise ValueError("shared nodes out of range")
        self._slot_of = np.full(int(num_nodes), -1, dtype=np.int64)
        self._slot_of[shared_nodes] = np.arange(len(shared_nodes), dtype=np.int64)
        self._shared = shared_nodes
        self._layers: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._signature: Optional[Hashable] = None
        self._lock = threading.RLock()
        self._epoch = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return int(sum(present.sum() for _, present in self._layers.values()))

    @property
    def num_shared(self) -> int:
        """Size of the eligible (boundary) node set."""
        return len(self._shared)

    @property
    def shared_nodes(self) -> np.ndarray:
        """Sorted global ids eligible for exchange (held by >= 2 workers)."""
        return self._shared

    @property
    def epoch(self) -> int:
        """Fault epoch; publishes captured before a bump are discarded."""
        with self._lock:
            return self._current_epoch()

    def _current_epoch(self) -> int:
        """Epoch storage hook (held under ``self._lock``); subclasses that
        keep the epoch elsewhere — e.g. a shared-memory cell visible to every
        worker process — override this and :meth:`bump_epoch` together."""
        return self._epoch

    def bump_epoch(self) -> int:
        """Invalidate in-flight publishes (the engine calls this on failure)."""
        with self._lock:
            self._epoch += 1
            return self._epoch

    # -- versioning -----------------------------------------------------------

    def ensure_signature(self, signature: Hashable) -> bool:
        """Drop every entry if the weight signature changed since last use."""
        with self._lock:
            if self._signature is None:
                self._signature = signature
                return False
            if signature == self._signature:
                return False
            self._drop_entries()
            self._signature = signature
            self.stats.invalidations += 1
            return True

    def clear(self) -> None:
        with self._lock:
            self._drop_entries()

    def _drop_entries(self) -> None:
        for _, present in self._layers.values():
            present.fill(False)

    # -- exchange ---------------------------------------------------------------

    def take_mask(self, layer: int, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(hit_mask over nodes, hit_values)`` for ``layer``.

        ``hit_values`` rows correspond to the masked positions in order —
        the same contract as :meth:`EmbeddingCache.take_mask`.  Only boundary
        nodes can hit; lookups of non-eligible nodes are not counted.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        with self._lock:
            slots = self._slot_of[nodes]
            eligible = slots >= 0
            n_eligible = int(eligible.sum())
            entry = self._layers.get(layer)
            if entry is None or n_eligible == 0:
                self.stats.misses += n_eligible
                return np.zeros(len(nodes), dtype=bool), np.empty((0, 0), dtype=np.float64)
            slab, present = entry
            hit = eligible.copy()
            hit[eligible] = present[slots[eligible]]
            values = slab[slots[hit]]  # single gather (fresh array)
            self.stats.hits += len(values)
            self.stats.misses += n_eligible - len(values)
            return hit, values

    def publish(
        self,
        layer: int,
        nodes: Sequence[int],
        values: np.ndarray,
        epoch: Optional[int] = None,
    ) -> None:
        """Store freshly computed layer rows; non-boundary nodes are ignored.

        ``epoch`` (when given) must match the store's current fault epoch —
        a mismatch means a replica failed while these rows were in flight,
        and the whole publish is discarded rather than trusted.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or len(values) != len(nodes):
            raise ValueError("values must be a (len(nodes), dim) array")
        with self._lock:
            if epoch is not None and epoch != self._current_epoch():
                self.stats.discarded += len(nodes)
                return
            slots = self._slot_of[nodes]
            mask = slots >= 0
            count = int(mask.sum())
            if count == 0:
                return
            entry = self._layers.get(layer)
            if entry is None:
                slab = np.empty((len(self._shared), values.shape[1]), dtype=np.float64)
                present = np.zeros(len(self._shared), dtype=bool)
                self._layers[layer] = (slab, present)
            else:
                slab, present = entry
                if slab.shape[1] != values.shape[1]:
                    raise ValueError(
                        f"layer {layer} halo slab holds {slab.shape[1]}-dim vectors, "
                        f"got {values.shape[1]}"
                    )
            slab[slots[mask]] = values[mask]
            present[slots[mask]] = True
            self.stats.insertions += count

    def contains(self, layer: int, node: int) -> bool:
        """Membership check that does not touch stats."""
        with self._lock:
            entry = self._layers.get(layer)
            if entry is None:
                return False
            slot = self._slot_of[int(node)]
            return bool(slot >= 0 and entry[1][slot])

    # -- bulk read-out (rebuilt-replica cache pre-warm) -------------------------

    @property
    def signature(self) -> Optional[Hashable]:
        """The weight signature the resident rows were computed under."""
        with self._lock:
            return self._signature

    def layers(self) -> List[int]:
        """Layers with an allocated slab, sorted."""
        with self._lock:
            return sorted(self._layers)

    def resident(self, layer: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(global node ids, row values)`` currently present for ``layer``.

        Rows are copied out, so callers (a rebuilt worker pre-warming its
        private cache) can hold them without pinning the slab.  Does not
        touch hit/miss stats — this is a maintenance read, not a lookup.
        """
        with self._lock:
            entry = self._layers.get(layer)
            if entry is None:
                return np.empty(0, dtype=np.int64), np.empty((0, 0), dtype=np.float64)
            slab, present = entry
            slots = np.flatnonzero(present)
            return self._shared[slots], slab[slots].copy()
