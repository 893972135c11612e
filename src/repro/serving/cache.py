"""Versioned per-layer embedding stores: the shared halo tier and the per-worker LRU.

Exact per-node inference recomputes the same hidden states over and over when
requests' receptive fields overlap (the power-law access pattern GNNIE
exploits with its degree-aware cache).  Both stores here memoise layer-``k``
hidden vectors per *global* node id so a warm request touches only the layers
whose inputs are not already known.  A worker serves from exactly one of
them:

* :class:`HaloStore` — when the server builds a shared tier (``halo_tier``
  on and at least two workers), it is every worker's only store, indexed
  directly by global node id and shared by the whole fleet: a row any
  worker computed is written once and gathered by every worker that needs
  it — the same shard later, a neighbouring shard, or a sibling replica.
* :class:`EmbeddingCache` — without a shared tier (``halo_tier`` off or a
  single worker), each worker keeps this private, ``capacity``-bounded
  store: one contiguous ``(capacity, dim)`` float64 slab plus an int64
  node→slot index map per layer, so a lookup is a single vectorised gather
  and an insert a single scatter.  Retention is exact least-recently-used
  via monotone access stamps: observationally equivalent to a per-row
  ``OrderedDict`` LRU (same hits, misses, eviction victims and final
  contents on any take/insert sequence; the hypothesis suite in
  ``tests/serving/test_cache_equivalence.py`` checks it against one).

Invalidation (both classes) follows the discipline introduced with the
spectral weight cache of :class:`repro.nn.BlockCirculantLinear`: every cached
value is tied to the model's *weight signature* — the tuple of
``Parameter.version`` counters (see :meth:`repro.nn.Module.weight_signature`).
A training step bumps the versions, the signature changes, and the whole
store is dropped on the next access, so serving can never return embeddings
computed with stale weights.  Both keep their slabs allocated across
invalidations: a weight update resets index maps in place, it does not
re-allocate.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

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

    def __init__(self, capacity: int, dim: int, num_nodes: int, strict: bool = False) -> None:
        self.dim = dim
        # ``strict`` callers (the engine, which sizes num_nodes to the graph)
        # promise every looked-up id is < num_nodes, so lookup can be a bare
        # gather with no clipping.
        self.strict = strict
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
        """Free every used slot: the stack is refilled in place, not rebuilt."""
        self.release(np.flatnonzero(self.slot_nodes >= 0))


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

    def __init__(self, capacity: int, num_nodes: Optional[int] = None) -> None:
        if capacity < 0:
            raise ValueError("cache capacity must be non-negative")
        self.capacity = int(capacity)
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._layers: Dict[int, _LayerSlab] = {}
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
        """Drop every entry and free the layer slabs (the worker is closing;
        a weight change keeps the slabs, see :meth:`_drop_entries`)."""
        with self._lock:
            self._layers.clear()
            self._size = 0

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
                store = _LayerSlab(
                    self.capacity, values.shape[1], self._num_nodes, strict=self._strict
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
    """Shared, versioned embedding store indexed by global node id.

    Built by the server whenever two or more workers exist and ``halo_tier``
    is on, and then every worker's *only* store: per layer a worker does one
    :meth:`take_mask` over the nodes it needs and one :meth:`publish` of the
    rows it computed.  Neighbouring shards overlap — every node within K hops
    of a partition cut is held by each shard whose halo contains it — and
    replicas of one shard hold the same nodes, so a row computed by any
    worker is gathered, never recomputed, by the others.

    Storage is a ``(num_nodes, dim)`` slab plus a ``(num_nodes,)`` presence
    map per layer, allocated lazily on first publish: a node's row lives at
    its id, so there is no slot map and no eviction.  Every row is exact
    (bitwise equal to full-graph inference), so nothing ever needs
    replacing.

    Versioning follows :class:`EmbeddingCache`: entries are tied to the
    model's weight signature and dropped wholesale (one ``fill`` per layer,
    slabs stay allocated) when a training step changes it.

    Fault isolation: the store carries an *epoch* that the engine bumps
    whenever a replica fails mid-flush.  Workers capture the epoch before
    computing and pass it to :meth:`publish`; a publish whose epoch is stale
    is discarded (counted in ``stats.discarded``), so rows computed alongside
    a failure — possibly by a replica that is itself dying — can never enter
    the store after the failure was observed.  Together with the
    complete-row filter (workers offer only rows whose shard-CSR neighbour
    list is complete) this keeps the store exact even under fault injection.

    Thread-safe: workers on different executor threads publish and gather
    concurrently under an internal ``RLock``.
    """

    def __init__(self, num_nodes: int, shared_nodes: Optional[np.ndarray] = None) -> None:
        self.num_nodes = int(num_nodes)
        # ``shared_nodes`` is accepted only as the full cover the store always
        # is; a subset would silently drop rows a worker expects to find.
        if shared_nodes is not None and not np.array_equal(
            np.unique(np.asarray(shared_nodes, dtype=np.int64)), np.arange(self.num_nodes)
        ):
            raise ValueError("the halo store holds every node; shared_nodes must cover all of them")
        self._layers: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._signature: Optional[Hashable] = None
        self._lock = threading.RLock()
        self._epoch = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return int(sum(np.count_nonzero(present) for _, present in self._layers.values()))

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

    # -- lookup / publish -------------------------------------------------------

    def take_mask(self, layer: int, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(hit_mask over nodes, hit_values)`` for ``layer``.

        ``hit_values`` rows correspond to the masked positions in order —
        the same contract as :meth:`EmbeddingCache.take_mask`.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        with self._lock:
            entry = self._layers.get(layer)
            if entry is None:
                self.stats.misses += len(nodes)
                return np.zeros(len(nodes), dtype=bool), np.empty((0, 0), dtype=np.float64)
            slab, present = entry
            hit = present[nodes]
            values = slab[nodes[hit]]  # single gather (fresh array)
            self.stats.hits += len(values)
            self.stats.misses += len(nodes) - len(values)
            return hit, values

    def publish(
        self,
        layer: int,
        nodes: Sequence[int],
        values: np.ndarray,
        epoch: Optional[int] = None,
    ) -> int:
        """Store freshly computed layer rows; returns how many were stored.

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
                return 0
            if not len(nodes):
                return 0
            entry = self._layers.get(layer)
            if entry is None:
                slab = np.empty((self.num_nodes, values.shape[1]), dtype=np.float64)
                present = np.zeros(self.num_nodes, dtype=bool)
                self._layers[layer] = (slab, present)
            else:
                slab, present = entry
                if slab.shape[1] != values.shape[1]:
                    raise ValueError(
                        f"layer {layer} halo slab holds {slab.shape[1]}-dim vectors, "
                        f"got {values.shape[1]}"
                    )
            slab[nodes] = values
            present[nodes] = True
            self.stats.insertions += len(nodes)
            return len(nodes)

    def contains(self, layer: int, node: int) -> bool:
        """Membership check that does not touch stats."""
        with self._lock:
            entry = self._layers.get(layer)
            return entry is not None and bool(entry[1][int(node)])

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
            nodes = np.flatnonzero(present)
            return nodes, slab[nodes]
