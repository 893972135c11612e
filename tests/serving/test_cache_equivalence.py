"""The slab cache must be a drop-in for a plain OrderedDict LRU cache.

:class:`OrderedDictLRU` below is the oracle: the per-row ``OrderedDict`` LRU
the slab cache replaced, reduced to the serving protocol.  The property test
drives both implementations through that protocol —
``take`` a node set, ``put`` exactly the reported misses — and asserts
*observational equivalence* after every operation: identical hit/miss splits,
identical returned values, identical stats counters (hits, misses,
insertions, evictions) and identical final contents.  Eviction victims are
thereby checked implicitly: pick a different victim once and some later
``take`` splits differently.

The halo-tier tests assert the shared :class:`HaloStore` honours the same
weight-signature invalidation discipline as the per-shard caches — a training
step must drop its rows exactly once, never serve them stale.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import Trainer, TrainingConfig, create_model
from repro.serving import (
    CacheStats,
    EmbeddingCache,
    HaloStore,
    InferenceServer,
    ManualClock,
    ServingConfig,
)

LAYERS = (1, 2)
NUM_NODES = 12
DIM = 3


class OrderedDictLRU:
    """Reference ``(layer, node) -> row`` LRU: one ``OrderedDict`` entry per row."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self._signature: Optional[Hashable] = None

    def __len__(self) -> int:
        return len(self._entries)

    def ensure_signature(self, signature: Hashable) -> bool:
        if self._signature is None or signature == self._signature:
            self._signature = signature
            return False
        self._entries.clear()
        self._signature = signature
        self.stats.invalidations += 1
        return True

    def take(self, layer: int, nodes: np.ndarray):
        hits, rows, misses = [], [], []
        for node in nodes.tolist():
            row = self._entries.get((layer, node))
            if row is None:
                misses.append(node)
            else:
                self._entries.move_to_end((layer, node))
                hits.append(node)
                rows.append(row)
        self.stats.hits += len(hits)
        self.stats.misses += len(misses)
        values = np.stack(rows) if rows else np.empty((0, DIM))
        return np.asarray(hits, dtype=np.int64), values, np.asarray(misses, dtype=np.int64)

    def put(self, layer: int, nodes: np.ndarray, values: np.ndarray) -> None:
        for node, row in zip(nodes.tolist(), values):
            self._entries[(layer, node)] = np.array(row, copy=True)
            self._entries.move_to_end((layer, node))
            self.stats.insertions += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def contains(self, layer: int, node: int) -> bool:
        return (layer, int(node)) in self._entries


def _values(layer: int, nodes: np.ndarray, round_id: int) -> np.ndarray:
    """Deterministic, round-tagged rows so stale entries are distinguishable."""
    base = nodes.astype(np.float64) + 100.0 * layer + 1000.0 * round_id
    return np.repeat(base[:, None], DIM, axis=1) + np.arange(DIM)


def _stats_tuple(cache) -> tuple:
    stats = cache.stats
    return (stats.hits, stats.misses, stats.insertions, stats.evictions, stats.invalidations)


take_ops = st.lists(
    st.tuples(
        st.sampled_from(LAYERS),
        st.lists(st.integers(0, NUM_NODES - 1), unique=True, min_size=0, max_size=8),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 6), ops=take_ops)
def test_slab_lru_observationally_equivalent_to_ordered_dict(capacity, ops):
    slab = EmbeddingCache(capacity, num_nodes=NUM_NODES)
    oracle = OrderedDictLRU(capacity)
    for round_id, (layer, node_list) in enumerate(ops):
        nodes = np.asarray(node_list, dtype=np.int64)
        slab_hits, slab_values, slab_misses = slab.take(layer, nodes)
        oracle_hits, oracle_values, oracle_misses = oracle.take(layer, nodes)
        assert np.array_equal(slab_hits, oracle_hits)
        assert np.array_equal(slab_misses, oracle_misses)
        if len(slab_hits):
            assert np.array_equal(slab_values, oracle_values)
        assert _stats_tuple(slab) == _stats_tuple(oracle)
        if len(slab_misses):
            values = _values(layer, slab_misses, round_id)
            slab.put(layer, slab_misses, values)
            oracle.put(layer, slab_misses, values)
            assert _stats_tuple(slab) == _stats_tuple(oracle)
            assert len(slab) == len(oracle)
    for layer in LAYERS:
        for node in range(NUM_NODES):
            assert slab.contains(layer, node) == oracle.contains(layer, node)


def test_signature_invalidation_matches_ordered_dict():
    slab = EmbeddingCache(4, num_nodes=NUM_NODES)
    oracle = OrderedDictLRU(4)
    for cache in (slab, oracle):
        assert not cache.ensure_signature((0,))
        cache.put(1, np.array([1, 2]), np.ones((2, DIM)))
        assert not cache.ensure_signature((0,))
        assert cache.ensure_signature((1,))
        assert len(cache) == 0
        assert cache.stats.invalidations == 1
    assert _stats_tuple(slab) == _stats_tuple(oracle)


class TestHaloStoreInvalidation:
    def test_signature_protocol_matches_embedding_cache(self):
        halo = HaloStore(num_nodes=NUM_NODES, shared_nodes=np.arange(NUM_NODES))
        slab = EmbeddingCache(4, num_nodes=NUM_NODES)
        for store in (halo, slab):
            assert not store.ensure_signature((0,))
            store_put = store.publish if isinstance(store, HaloStore) else store.put
            store_put(1, np.array([1, 2]), np.ones((2, DIM)))
            assert not store.ensure_signature((0,))
            assert store.ensure_signature((1,))
            assert len(store) == 0
            assert store.stats.invalidations == 1

    def test_training_step_invalidates_halo_like_per_shard_caches(self):
        from repro.graph.datasets import synthetic_graph

        graph = synthetic_graph(num_nodes=90, num_edges=450, num_features=12,
                                num_classes=3, seed=9, name="halo-train")
        model = create_model("GCN", 12, 16, 3, seed=0)
        server = InferenceServer(
            model,
            graph,
            ServingConfig(num_shards=2, partition_method="hash", max_delay=0.5, seed=0),
            clock=ManualClock(),
        )
        nodes = np.arange(graph.num_nodes)
        before = server.predict(nodes)
        assert len(server.halo_store) > 0
        signature = model.weight_signature()
        Trainer(
            model, graph,
            TrainingConfig(epochs=1, fanouts=(4, 3), seed=0, learning_rate=0.5),
        ).train_epoch(0)
        assert model.weight_signature() != signature
        after = server.predict(nodes)
        fresh = model.full_forward(graph).data.argmax(axis=-1)
        assert np.array_equal(after, fresh)
        assert not np.array_equal(after, before)
        # Exactly one invalidation of the shared tier — same discipline as
        # every per-shard cache.
        assert server.halo_store.stats.invalidations == 1
        for worker in server.workers:
            assert worker.cache.stats.invalidations == 1


def test_take_mask_is_consistent_with_take():
    cache = EmbeddingCache(8, num_nodes=NUM_NODES)
    cache.put(1, np.array([2, 5, 7]), np.ones((3, DIM)))
    nodes = np.array([5, 1, 7, 3], dtype=np.int64)
    mask, values = cache.take_mask(1, nodes)
    assert mask.tolist() == [True, False, True, False]
    assert values.shape == (2, DIM)
    hit_nodes, hit_values, miss_nodes = cache.take(1, nodes)
    assert hit_nodes.tolist() == [5, 7] and miss_nodes.tolist() == [1, 3]
    assert np.array_equal(hit_values, values)


def test_put_requires_distinct_nodes_is_documented_protocol():
    """Misses of a take are unique by construction; puts rely on that."""
    cache = EmbeddingCache(8, num_nodes=NUM_NODES)
    _, _, misses = cache.take(1, np.array([3, 3, 5]))
    # take tolerates duplicate lookups; the worker dedupes before asking.
    assert misses.tolist() == [3, 3, 5]
    with pytest.raises(Exception):
        cache.put(1, np.array([1, 2]), np.ones((1, DIM)))  # shape mismatch still caught
