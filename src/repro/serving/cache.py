"""The versioned per-layer embedding store, indexed by global node id.

Exact per-node inference recomputes the same hidden states over and over when
requests' receptive fields overlap (the power-law access pattern GNNIE
exploits with its degree-aware cache).  :class:`HaloStore` memoises layer-``k``
hidden vectors per *global* node id, so a warm request touches only the
layers whose inputs are not already known, and a lookup copies each hit row
once, from the slab straight into the worker's assembly buffer for the layer
(:meth:`HaloStore.gather`).  Like BlockGNN's on-chip buffer,
it keeps each node's row at a fixed address (its id) in one ``(num_nodes,
dim)`` slab per layer: there is no slot map, no second copy and no
replacement policy, because the slab holds every node and every row in it is
exact.

A worker reads and writes exactly one store, or none.  With ``halo_tier`` on
the server builds one store and every worker shares it, so a row any worker
computed is gathered by every worker that needs it (the same shard later, a
neighbouring shard or a sibling replica).  With ``halo_tier`` off each worker
gets a private store of its own (``cache_capacity > 0``) or no store at all
(``cache_capacity == 0``).

Invalidation follows the discipline introduced with the spectral weight cache
of :class:`repro.nn.BlockCirculantLinear`: every stored value is tied to the
model's *weight signature* — the tuple of ``Parameter.version`` counters (see
:meth:`repro.nn.Module.weight_signature`).  A training step bumps the
versions, the signature changes, and the whole store is dropped on the next
access, so serving can never return embeddings computed with stale weights.
The slabs stay allocated across invalidations: a weight update resets the
presence maps in place, it does not re-allocate.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "CacheStats",
    "HaloStore",
]


@dataclass
class CacheStats:
    """Counters describing store effectiveness.

    ``evictions`` always reads 0 (the store never evicts); it stays because
    readers of the exported counts index it.
    """

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


class HaloStore:
    """Versioned embedding store indexed by global node id.

    A worker's only store: per layer it does one :meth:`gather` over the
    nodes it needs, straight into the layer's assembly buffer, and one
    :meth:`publish` of the rows it computed.  Shared
    by the whole server when ``halo_tier`` is on: neighbouring shards
    overlap — every node within K hops of a partition cut is held by each
    shard whose halo contains it — and replicas of one shard hold the same
    nodes, so a row computed by any worker is gathered, never recomputed, by
    the others.  With the tier off a worker owns a private one.

    Storage is a ``(num_nodes, dim)`` slab plus a ``(num_nodes,)`` presence
    map per layer, allocated lazily on first publish: a node's row lives at
    its id, so there is no slot map and no eviction.  Every row is exact
    (bitwise equal to full-graph inference), so nothing ever needs
    replacing.

    Versioning: entries are tied to the model's weight signature and
    dropped wholesale (one ``fill`` per layer, slabs stay allocated) when a
    training step changes it.

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

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = int(num_nodes)
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
            for _, present in self._layers.values():
                present.fill(False)
            self._signature = signature
            self.stats.invalidations += 1
            return True

    # -- lookup / publish -------------------------------------------------------

    def gather(self, layer: int, nodes: np.ndarray, out: np.ndarray) -> Tuple[np.ndarray, int]:
        """Copy ``layer``'s stored rows for ``nodes`` into ``out``; returns
        ``(hit mask over nodes, hit count)``.

        ``out`` is the caller's ``(len(nodes), dim)`` float64 assembly
        buffer: every hit row lands at its lookup position, ``out[i]`` for
        ``nodes[i]``, so a hit is copied once, from the slab into the
        buffer.  The rows at miss positions are unspecified (the one
        contiguous ``take`` copies whatever the slab holds there) and are
        the caller's to overwrite; with no hit, ``out`` is not touched.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        with self._lock:
            entry = self._layers.get(layer)
            if entry is None:
                self.stats.misses += len(nodes)
                return np.zeros(len(nodes), dtype=bool), 0
            slab, present = entry
            hit = present[nodes]  # raises IndexError for an id past the graph
            hits = int(np.count_nonzero(hit))
            if hits:
                # The default mode="raise" gathers into a temporary and then
                # copies it into ``out`` (2.7x the time at 2 800 x 128); the
                # presence gather above already range-checked the ids, and
                # "wrap" reads a negative id's row from where its presence
                # bit came from, as indexing does.
                np.take(slab, nodes, axis=0, out=out, mode="wrap")
            self.stats.hits += hits
            self.stats.misses += len(nodes) - hits
            return hit, hits

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
