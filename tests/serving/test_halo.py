"""Cross-shard halo exchange: the HaloStore tier and its worker wiring.

The headline invariants:

* a boundary row computed during one shard's flush is *gathered* — never
  recomputed — by a neighbouring shard (or a sibling replica);
* a miss set satisfied entirely from the halo tier short-circuits without
  building a restriction plan at all;
* with the tier on it is every worker's only store, whatever the number of
  workers: a computed row is written once and looked up once;
* the store counts of a scripted run (``ServerStats.cache``/``.halo`` and
  the ``serving_cache_events``/``serving_halo_events`` export lines) equal
  the figures the two-store implementation gave;
* predictions are bitwise identical with the tier on or off;
* the tier is an exact-mode feature only.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.compression import CompressionConfig
from repro.graph.restriction import Restriction
from repro.models import GNNModel, create_model
from repro.models.base import GNNLayer, apply_linear, combine_rows
from repro.serving import HaloStore, InferenceServer, ManualClock, ServingConfig
from repro.serving.cache import CacheStats
from repro.serving import worker as worker_module
from repro.tensor.tensor import Tensor

DIM = 3
MODELS = ["GCN", "GS-Pool", "G-GCN", "GAT"]


def _model(graph, name="GCN", seed=0):
    return create_model(
        name,
        in_features=graph.num_features,
        hidden_features=16,
        num_classes=graph.num_classes,
        seed=seed,
    )


def _server(model, graph, **overrides):
    defaults = dict(
        num_shards=2,
        partition_method="hash",
        max_batch_size=16,
        max_delay=0.5,
        cache_capacity=4096,
        seed=0,
    )
    defaults.update(overrides)
    return InferenceServer(model, graph, ServingConfig(**defaults), clock=ManualClock())


def _gather(store, layer, nodes, dim=DIM):
    """One lookup into a fresh NaN-filled assembly buffer:
    ``(hit mask, hit count, buffer)``."""
    nodes = np.asarray(nodes)
    out = np.full((len(nodes), dim), np.nan)
    mask, hits = store.gather(layer, nodes, out)
    return mask, hits, out


class TestHaloStoreUnit:
    def test_publish_then_gather_every_node(self):
        store = HaloStore(num_nodes=10)
        values = np.arange(2 * DIM, dtype=np.float64).reshape(2, DIM)
        store.publish(1, np.array([2, 3]), values)  # any node id is storable
        assert len(store) == 2
        mask, hits, out = _gather(store, 1, [2, 3, 5])
        assert mask.tolist() == [True, True, False] and hits == 2
        assert np.array_equal(out[mask], values)
        # Every looked-up node counts: two hits, one miss.
        assert store.stats.hits == 2 and store.stats.misses == 1
        assert store.stats.insertions == 2

    def test_take_before_any_publish(self):
        store = HaloStore(num_nodes=8)
        mask, hits, out = _gather(store, 0, [1, 4])
        assert not mask.any() and hits == 0
        assert np.isnan(out).all()  # nothing hit: the buffer is not touched
        assert store.stats.misses == 2

    def test_signature_invalidation_drops_entries_keeps_slabs(self):
        store = HaloStore(num_nodes=8)
        assert not store.ensure_signature((0,))
        store.publish(1, np.array([0, 1]), np.ones((2, DIM)))
        assert not store.ensure_signature((0,))
        assert store.ensure_signature((1,))
        assert len(store) == 0
        assert store.stats.invalidations == 1
        assert not store.contains(1, 0)
        store.publish(1, np.array([0]), np.ones((1, DIM)))
        assert store.contains(1, 0)

    def test_dim_mismatch_and_bad_nodes_raise(self):
        store = HaloStore(num_nodes=8)
        store.publish(1, np.array([0]), np.ones((1, DIM)))
        with pytest.raises(ValueError):
            store.publish(1, np.array([1]), np.ones((1, DIM + 1)))
        with pytest.raises(ValueError):
            store.publish(1, np.array([0]), np.ones(DIM))  # not 2-D
        with pytest.raises(ValueError):  # a buffer of the wrong width
            _gather(store, 1, [0], dim=DIM + 1)

    def test_row_count_mismatch_raises_and_stores_nothing(self):
        store = HaloStore(num_nodes=8)
        with pytest.raises(ValueError):
            store.publish(1, np.array([1, 2]), np.ones((3, DIM)))
        assert len(store) == 0 and store.stats.insertions == 0

    def test_layers_are_distinct_keyspaces(self):
        store = HaloStore(num_nodes=8)
        store.publish(1, np.array([5]), np.ones((1, DIM)))
        assert store.contains(1, 5) and not store.contains(2, 5)
        mask, hits, out = _gather(store, 2, [5])
        assert not mask.any() and hits == 0 and np.isnan(out).all()

    def test_gathered_rows_are_isolated_copies(self):
        store = HaloStore(num_nodes=4)
        source = np.ones((1, DIM))
        store.publish(1, np.array([1]), source)
        source[:] = 99.0  # mutating the producer's buffer must not leak in
        _, _, out = _gather(store, 1, [1])
        assert np.array_equal(out[0], np.ones(DIM))
        out[0, 0] = 5.0  # the buffer holds a copy, not a view of the slab
        _, _, again = _gather(store, 1, [1])
        assert np.array_equal(again[0], np.ones(DIM))

    def test_rows_follow_the_masked_positions_in_order(self):
        store = HaloStore(num_nodes=10)
        values = np.arange(3 * DIM, dtype=np.float64).reshape(3, DIM)
        store.publish(0, np.array([7, 2, 4]), values)
        mask, hits, out = _gather(store, 0, [4, 9, 7, 4, 2])
        assert mask.tolist() == [True, False, True, True, True] and hits == 4
        assert np.array_equal(out[mask], values[[2, 0, 2, 1]])
        assert store.stats.hits == 4 and store.stats.misses == 1

    def test_hit_rows_land_at_their_lookup_positions(self):
        store = HaloStore(num_nodes=10)
        values = np.arange(3 * DIM, dtype=np.float64).reshape(3, DIM) + 1.0
        store.publish(1, np.array([7, 2, 4]), values)
        nodes = np.array([4, 9, 7, 4, 2, 0])
        out = np.full((len(nodes), DIM), np.nan)
        view = out  # the caller's buffer is filled in place, not replaced
        mask, hits = store.gather(1, nodes, out)
        assert out is view and hits == 4
        expected = {0: values[2], 2: values[0], 3: values[2], 4: values[1]}
        for position, row in expected.items():
            assert mask[position] and np.array_equal(out[position], row)
        assert not mask[1] and not mask[5]  # miss rows are the caller's to fill

    def test_counts_match_the_mask_and_the_stats(self):
        store = HaloStore(num_nodes=12)
        store.publish(1, np.arange(0, 12, 3), np.ones((4, DIM)))  # 0, 3, 6, 9
        lookups = [[0, 1, 2, 3], [6, 9], [5, 7, 11], [], [9, 9, 10]]
        expected_hits = [2, 2, 0, 0, 2]
        for nodes, expected in zip(lookups, expected_hits):
            mask, hits, _ = _gather(store, 1, nodes)
            assert hits == expected == int(mask.sum())
        total = sum(len(nodes) for nodes in lookups)
        assert store.stats.as_dict() == dict(
            hits=6, misses=total - 6, insertions=4, evictions=0, invalidations=0, discarded=0
        )

    def test_nothing_hits_after_a_signature_change(self):
        store = HaloStore(num_nodes=6)
        store.ensure_signature((0,))
        store.publish(2, np.arange(6), np.ones((6, DIM)))
        assert _gather(store, 2, np.arange(6))[1] == 6
        assert store.ensure_signature((1,))
        mask, hits, out = _gather(store, 2, np.arange(6))
        assert not mask.any() and hits == 0 and np.isnan(out).all()
        assert store.stats.hits == 6 and store.stats.misses == 6

    def test_republish_overwrites_the_row_at_its_id(self):
        store = HaloStore(num_nodes=4)
        store.publish(1, np.array([2]), np.zeros((1, DIM)))
        slab = store._layers[1][0]
        store.publish(1, np.array([2]), np.full((1, DIM), 3.0))
        assert len(store) == 1 and store._layers[1][0] is slab
        _, _, out = _gather(store, 1, [2])
        assert np.array_equal(out, np.full((1, DIM), 3.0))
        assert store.stats.insertions == 2

    def test_every_node_fits_and_nothing_is_evicted(self):
        store = HaloStore(num_nodes=6)
        for layer in (0, 1):
            for node in range(6):
                store.publish(layer, np.array([node]), np.full((1, DIM), float(node)))
        assert len(store) == 12
        mask, _, out = _gather(store, 1, np.arange(6))
        assert mask.all() and np.array_equal(out[:, 0], np.arange(6.0))
        assert store.stats.evictions == 0

    def test_ids_outside_the_graph_are_rejected(self):
        store = HaloStore(num_nodes=4)
        store.publish(1, np.array([3]), np.ones((1, DIM)))  # the last id fits
        with pytest.raises(IndexError):
            store.publish(1, np.array([4]), np.ones((1, DIM)))
        with pytest.raises(IndexError):  # the lookup does not clip an id
            _gather(store, 1, [3, 4])
        assert len(store) == 1

    def test_a_negative_id_reads_the_row_its_presence_bit_belongs_to(self):
        store = HaloStore(num_nodes=4)
        store.publish(1, np.array([0, 3]), np.array([[1.0] * DIM, [4.0] * DIM]))
        mask, hits, out = _gather(store, 1, [-1, 1])
        assert mask.tolist() == [True, False] and hits == 1
        assert np.array_equal(out[0], np.full(DIM, 4.0))  # node 3, as indexing reads -1

    def test_empty_publish_allocates_no_slab(self):
        store = HaloStore(num_nodes=4)
        assert store.publish(1, np.array([], dtype=np.int64), np.empty((0, DIM))) == 0
        assert store._layers == {} and store.stats.insertions == 0
        mask, _, _ = _gather(store, 1, [0])
        assert not mask.any()

    def test_invalidation_resets_presence_in_place(self):
        store = HaloStore(num_nodes=4)
        store.ensure_signature((0,))
        store.publish(1, np.array([1, 2]), np.ones((2, DIM)))
        slab, present = store._layers[1]
        assert store.ensure_signature((1,))
        mask, _, _ = _gather(store, 1, [1, 2])
        assert not mask.any()  # rows of the old weights are misses
        store.publish(1, np.array([3]), np.ones((1, DIM)))
        assert store._layers[1][0] is slab and store._layers[1][1] is present
        assert present.tolist() == [False, False, False, True]

    def test_contains_does_not_touch_stats(self):
        store = HaloStore(num_nodes=4)
        store.publish(1, np.array([0]), np.ones((1, DIM)))
        before = dict(store.stats.as_dict())
        assert store.contains(1, 0) and not store.contains(1, 1) and not store.contains(3, 0)
        assert store.stats.as_dict() == before

    def test_a_shared_store_lookup_reads_the_creators_rows(self):
        # The process plane builds the store over shared segments and each
        # worker process attaches it by spec: a lookup through the attached
        # view copies the rows the creator published into its own buffer.
        from repro.serving.procplane import SharedHaloStore, SharedSlabArena

        arena = SharedSlabArena(token="gather")
        try:
            creator = SharedHaloStore.create(arena, num_nodes=8, layer_dims={1: DIM})
            values = np.arange(2 * DIM, dtype=np.float64).reshape(2, DIM)
            creator.publish(1, np.array([6, 1]), values)
            child = SharedHaloStore.attach(creator.spec)
            mask, hits, out = _gather(child, 1, [1, 5, 6])
            assert mask.tolist() == [True, False, True] and hits == 2
            assert np.array_equal(out[[0, 2]], values[[1, 0]])
            assert child.stats.hits == 2 and child.stats.misses == 1
            assert creator.stats.hits == 0  # each process counts its own lookups
            del child
        finally:
            arena.unlink_all()

    def test_capacity_and_retention_are_not_parameters(self):
        # The store is direct-mapped over every node: there is nothing to size,
        # evict or restrict to a subset of nodes.
        for kwargs in (
            dict(capacity=4),
            dict(policy="lru"),
            dict(shared_nodes=np.arange(4)),
        ):
            with pytest.raises(TypeError):
                HaloStore(4, **kwargs)


class TestCacheStats:
    def test_merge_sums_every_field(self):
        names = [field.name for field in dataclasses.fields(CacheStats)]
        left = CacheStats(**{name: index + 1 for index, name in enumerate(names)})
        right = CacheStats(**{name: 10 * (index + 1) for index, name in enumerate(names)})
        merged = left.merge(right)
        assert merged.as_dict() == {name: 11 * (index + 1) for index, name in enumerate(names)}
        assert left.as_dict()["hits"] == 1  # operands untouched

    def test_as_dict_names_every_field(self):
        names = [field.name for field in dataclasses.fields(CacheStats)]
        assert list(CacheStats().as_dict()) == names

    def test_hit_rate_reads_zero_without_lookups(self):
        assert CacheStats().lookups == 0 and CacheStats().hit_rate == 0.0
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4 and stats.hit_rate == 0.75


class TestEngineWiring:
    def test_halo_store_built_whenever_the_tier_is_on(self, small_graph):
        model = _model(small_graph)
        assert _server(model, small_graph).halo_store is not None
        assert _server(model, small_graph, halo_tier=False).halo_store is None
        assert _server(model, small_graph, num_shards=1).halo_store is not None
        replicated = _server(model, small_graph, num_shards=1, num_replicas=2)
        assert replicated.halo_store is not None
        assert replicated.halo_store.num_nodes == small_graph.num_nodes

    def test_shard_b_reuses_rows_computed_by_shard_a(self, small_graph):
        model = _model(small_graph)
        reference = model.full_forward(small_graph).data.argmax(axis=-1)
        server = _server(model, small_graph)
        shard_a, shard_b = server.shards
        assert np.array_equal(server.predict(shard_a.core_nodes), reference[shard_a.core_nodes])
        published = server.halo_store.stats.insertions
        assert published > 0
        assert np.array_equal(server.predict(shard_b.core_nodes), reference[shard_b.core_nodes])
        stats = server.stats()
        assert stats.halo.hits > 0            # B gathered rows A computed
        assert stats.halo_tier
        assert "halo tier:" in stats.render()

    def test_predictions_bitwise_equal_halo_on_vs_off(self, small_graph):
        nodes = np.random.default_rng(0).choice(small_graph.num_nodes, size=80, replace=True)
        for name in ["GCN", "GAT"]:
            model = _model(small_graph, name)
            on = _server(model, small_graph, num_shards=3)
            off = _server(model, small_graph, num_shards=3, halo_tier=False)
            assert np.array_equal(on.predict(nodes), off.predict(nodes))
            assert np.array_equal(on.predict(nodes), off.predict(nodes))  # warm

    def test_replicas_exchange_through_the_store(self, small_graph):
        model = _model(small_graph)
        server = _server(model, small_graph, num_shards=1, num_replicas=2)
        nodes = np.arange(16)
        server.predict(nodes)   # replica 0 computes and publishes
        server.predict(nodes)   # replica 1 gathers instead of recomputing
        assert server.stats().halo.hits > 0

    def test_weight_update_invalidates_halo_store(self, small_graph):
        model = _model(small_graph)
        server = _server(model, small_graph)
        nodes = np.arange(24)
        server.predict(nodes)
        assert len(server.halo_store) > 0
        # A manual weight bump, exactly like the per-shard cache contract.
        param = model.parameters()[0]
        param.data += 0.05
        param.bump_version()
        fresh = model.full_forward(small_graph).data.argmax(axis=-1)
        assert np.array_equal(server.predict(nodes), fresh[nodes])
        assert server.halo_store.stats.invalidations == 1

    def test_reset_stats_clears_halo_counters_keeps_contents(self, small_graph):
        model = _model(small_graph)
        server = _server(model, small_graph)
        server.predict(np.arange(32))
        contents = len(server.halo_store)
        assert contents > 0
        server.reset_stats()
        stats = server.stats()
        assert stats.halo.hits == 0 and stats.halo.insertions == 0
        assert len(server.halo_store) == contents  # warm rows survive


class TestOneStore:
    """One row, one write, one lookup: with the tier on, the shared store is
    the only place a worker reads or writes embeddings."""

    def test_every_computed_row_is_written_once_and_never_copied_back(
        self, small_graph, monkeypatch
    ):
        model = _model(small_graph)
        reference = model.full_forward(small_graph).data.argmax(axis=-1)
        server = _server(model, small_graph)
        writes = []
        original = HaloStore.publish

        def recording_publish(self, layer, nodes, values, epoch=None):
            writes.extend((layer, int(node)) for node in nodes)
            return original(self, layer, nodes, values, epoch)

        monkeypatch.setattr(HaloStore, "publish", recording_publish)
        nodes = np.random.default_rng(5).choice(small_graph.num_nodes, size=96, replace=True)
        assert np.array_equal(server.predict(nodes), reference[nodes])
        stats = server.stats()
        assert stats.halo.hits > 0  # the shards did reuse each other's rows
        computed = sum(worker.cache_stats.misses for worker in server.workers)
        # Each recomputed row is stored exactly once, and nothing else is.
        assert len(writes) == len(set(writes)) == computed
        assert server.halo_store.stats.insertions == stats.cache.insertions == computed
        assert all(worker.store is server.halo_store for worker in server.workers)

    def test_node_held_by_one_shard_is_a_store_hit_on_its_second_request(self, small_graph):
        model = _model(small_graph)
        server = _server(model, small_graph, partition_method="bfs")
        held = np.zeros(small_graph.num_nodes, dtype=np.int64)
        for shard in server.shards:
            held[shard.nodes] += 1
        node = int(np.flatnonzero(held == 1)[0])
        server.predict([node])
        assert server.halo_store.contains(model.num_layers, node)
        before = server.stats()
        server.predict([node])
        after = server.stats()
        assert after.halo.hits - before.halo.hits == 1
        assert after.cache.hits - before.cache.hits == 1
        assert after.cache.misses == before.cache.misses


    def test_a_rebuilt_replica_counts_only_its_own_lookups(self, small_graph):
        # A rebuilt replica starts with empty counts and copies nothing; its
        # lookups then land in its cache_stats and the store's alike.  (A
        # retired replica's counts leave ServerStats.cache with it, so the
        # sums are compared over the flush after the rebuild.)
        model = _model(small_graph)
        reference = model.full_forward(small_graph).data.argmax(axis=-1)
        server = _server(model, small_graph, num_replicas=2, cache_capacity=8)
        nodes = np.arange(small_graph.num_nodes)
        assert np.array_equal(server.predict(nodes), reference)
        replacement = server.restart_replica(0, 0)
        assert replacement.cache_stats == CacheStats()
        before = server.stats()
        assert np.array_equal(server.predict(nodes), reference)
        after = server.stats()
        for count in ("hits", "misses", "insertions"):
            assert getattr(after.cache, count) - getattr(before.cache, count) == (
                getattr(after.halo, count) - getattr(before.halo, count)
            ), count


def _events(name, counts):
    return [f'{name}{{event="{event}"}} {value}' for event, value in counts.items()]


def _counts(hits, misses, invalidations=0):
    return dict(
        hits=hits,
        misses=misses,
        insertions=misses,
        evictions=0,
        invalidations=invalidations,
        discarded=0,
    )


#: Per checkpoint of the scripted run: (ServerStats.cache, ServerStats.halo),
#: as the implementation with a private LRU beside the shared store exported
#: them.  Every miss is a row computed and stored once.
PINNED_STORE_COUNTS = [
    (_counts(125, 154), _counts(125, 154)),
    # Both workers count the weight change; the store drops its rows once.
    (_counts(260, 311, invalidations=2), _counts(260, 311, invalidations=1)),
    (_counts(185, 26), _counts(185, 26)),
]


class TestStoreCountsPinned:
    def test_a_scripted_run_exports_the_pinned_counts(self, small_graph):
        """Two shards on the shared store: a cold pass, a pass after one
        ``bump_version()``, and a pass after one ``reset_stats()``."""
        model = _model(small_graph)
        server = _server(model, small_graph)
        rng = np.random.default_rng(11)
        seen = []
        for step in ("cold", "bump", "reset"):
            if step == "bump":
                model.parameters()[0].bump_version()
            elif step == "reset":
                server.reset_stats()
            server.predict(rng.integers(0, small_graph.num_nodes, 48))
            stats = server.stats()
            lines = [
                line
                for line in server.telemetry.prometheus_text().splitlines()
                if line.startswith(("serving_cache_events{", "serving_halo_events{"))
            ]
            seen.append((stats.cache.as_dict(), stats.halo.as_dict(), lines))
        server.shutdown()
        assert seen == [
            (cache, halo, _events("serving_cache_events", cache) + _events("serving_halo_events", halo))
            for cache, halo in PINNED_STORE_COUNTS
        ]


class TestRowsStayExactAfterWeightBumpAndSubsetFlush:
    """Served and published rows stay exact after a weight bump and a subset
    flush on a bfs partition.

    A layer's computed set must never widen past the rows whose shard-CSR
    neighbour lists are complete: dragging a halo-edge node (its row is
    truncated on a bfs partition) into a recompute would cache a wrong value
    and publish it through the halo tier to other shards.  The adversarial
    sequence: cold flush, weight bump (embedding/halo caches invalidate),
    then flush a subset of the first batch.
    """

    @pytest.mark.parametrize("name", MODELS)
    def test_subset_flush_after_weight_bump(self, small_graph, name):
        model = _model(small_graph, name)
        server = _server(model, small_graph, num_shards=4, partition_method="bfs")
        shard = server.shards[0]
        cores = shard.core_nodes
        assert np.array_equal(
            server.predict(cores), model.full_forward(small_graph).data.argmax(-1)[cores]
        )
        param = model.parameters()[0]
        param.data += 0.07
        param.bump_version()
        fresh = model.full_forward(small_graph).data.argmax(axis=-1)
        subset = cores[:: 2]
        assert np.array_equal(server.predict(subset), fresh[subset])
        # Every other shard must now see only exact rows through the tier.
        all_nodes = np.arange(small_graph.num_nodes)
        assert np.array_equal(server.predict(all_nodes), fresh)

    def test_published_rows_are_bitwise_exact_after_subset_flush(self):
        """Ring topology, single-batch flushes, checked at the hidden-state
        level — argmax can mask a wrong row."""
        from repro.graph import Graph
        from repro.tensor.tensor import Tensor, no_grad

        n = 400
        edges = np.array([[i, (i + 1) % n] for i in range(n)])
        rng = np.random.default_rng(0)
        graph = Graph.from_edges(
            n, edges, rng.normal(size=(n, 8)), rng.integers(0, 3, size=n), name="ring"
        )
        model = create_model("GCN", 8, 16, 3, seed=0)
        server = InferenceServer(
            model,
            graph,
            ServingConfig(num_shards=4, partition_method="bfs", max_batch_size=128,
                          max_delay=0.5, seed=0),
            clock=ManualClock(),
        )
        cores = server.shards[0].core_nodes
        server.predict(cores)                     # cold flush
        model.parameters()[0].bump_version()      # drops embeddings and halo rows
        server.predict(cores[::2])                # subset flush
        with no_grad():
            hidden = model.layers[0].forward_full(Tensor(graph.features), graph).data
        # Layer 2 narrows 16 -> 3 and combines first: the store holds H·W2ᵀ.
        assert model.layers[1].combines_first
        layer1 = model.stored_rows(1, hidden)
        store = server.halo_store
        checked = 0
        for node in range(store.num_nodes):
            if store.contains(1, int(node)):
                _, _, values = _gather(store, 1, [node], dim=layer1.shape[1])
                assert np.array_equal(values[0], layer1[node]), f"stale/wrong row for {node}"
                checked += 1
        assert checked > 0


class TestFreshPlansPerFlush:
    """Every flush builds its restriction plans fresh.

    The only way a miss set recurs on warm traffic is the same batch replayed
    after a weight bump (the embedding cache answers a node after its first
    miss), so that replay is the sequence pinned here.  A weight-free first
    aggregation is the exception: the worker's memo keeps its rows across
    the bump, so that layer builds no plan for them again.
    """

    @pytest.mark.parametrize("name", MODELS)
    def test_replayed_batch_after_weight_bump_is_exact(self, small_graph, name):
        model = _model(small_graph, name)
        server = _server(model, small_graph, num_shards=4, partition_method="bfs")
        nodes = server.shards[1].core_nodes
        server.predict(nodes)
        param = model.parameters()[0]
        param.data += 0.07
        param.bump_version()
        fresh = model.full_forward(small_graph).data.argmax(axis=-1)
        assert np.array_equal(server.predict(nodes), fresh[nodes])
        assert np.array_equal(server.predict(np.arange(small_graph.num_nodes)), fresh)

    @staticmethod
    def _replanned_after_bump(monkeypatch, model, server):
        """Plan row lists of a one-node flush, then of its replay after a bump."""
        node = [int(server.shards[0].core_nodes[0])]
        builds = []
        original = Restriction.__init__

        def counting_init(self, graph, rows):
            builds.append(np.asarray(rows).tolist())
            original(self, graph, rows)

        monkeypatch.setattr(Restriction, "__init__", counting_init)
        server.predict(node)
        first = list(builds)
        assert len(first) == 2  # logits plan + layer-1 plan
        model.parameters()[0].bump_version()
        server.predict(node)
        return first, builds[len(first):]

    @pytest.mark.parametrize("name, replanned", [("GCN", 1), ("GS-Pool", 2)])
    def test_replay_after_weight_bump_rebuilds_weight_dependent_plans(
        self, small_graph, monkeypatch, name, replanned
    ):
        # GCN's first aggregation reads no weight: the worker memoised its
        # rows on the first flush, so the replay rebuilds only the logits
        # plan.  GS-Pool's pooling MLP is a weight: both plans come back.
        model = _model(small_graph, name)
        server = _server(model, small_graph, halo_tier=False)
        first, replay = self._replanned_after_bump(monkeypatch, model, server)
        assert replay == first[:replanned]  # same miss sets, built again

    def test_layer_without_the_flag_gets_no_memo(self, small_graph, monkeypatch):
        class UndeclaredLayer(GNNLayer):
            """GCN's maths in a layer that never declares has_aggregation_weights."""

            def __init__(self, in_features, out_features, rng):
                config = CompressionConfig(block_size=1)
                super().__init__(in_features, out_features, config)
                self.fc = config.linear(in_features, out_features, phase="combination", rng=rng)

            def forward_full(self, h, graph):
                operator = graph.random_walk_adjacency(add_self_loops=True)
                return apply_linear(self.fc, Tensor(operator @ h.data))

            def forward_restricted(self, h, restriction, timer=None, out=None, project=None):
                operator = restriction.operator("random_walk", add_self_loops=True)
                return Tensor(combine_rows(self.fc, operator @ h.data, None, False, out, project))

        rng = np.random.default_rng(0)
        model = GNNModel([
            UndeclaredLayer(small_graph.num_features, 16, rng),
            UndeclaredLayer(16, small_graph.num_classes, rng),
        ])
        server = _server(model, small_graph, halo_tier=False)
        assert all(worker._memo is None for worker in server.workers)
        first, replay = self._replanned_after_bump(monkeypatch, model, server)
        assert replay == first  # the layer-1 plan is rebuilt after the bump

    def test_plan_hit_rate_reads_zero(self, small_graph):
        model = _model(small_graph)
        server = _server(model, small_graph)
        nodes = np.arange(32)
        server.predict(nodes)
        model.parameters()[0].bump_version()
        server.predict(nodes)
        assert server.stats().plan_hit_rate == 0.0


class TestHaloShortCircuit:
    def test_miss_set_entirely_inside_halo_builds_no_plan(self, small_graph, monkeypatch):
        """A layer whose misses are all halo hits must skip plan construction."""
        model = _model(small_graph)
        server = _server(model, small_graph)
        shard_a, shard_b = server.shards
        server.predict(shard_a.core_nodes)  # fills the halo tier from shard A

        store = server.halo_store
        # A shard-B core whose layer-1 needs ({b} ∪ neighbours) were all
        # published during A's pass: its only plan is the logits layer's.
        candidate = None
        for node in shard_b.core_nodes:
            needs = np.concatenate([[node], small_graph.neighbors(node)])
            if all(store.contains(1, int(n)) for n in needs):
                candidate = int(node)
                break
        assert candidate is not None, "hash partition left no fully-covered core node"

        builds = []
        original = Restriction.__init__

        def counting_init(self, graph, rows):
            builds.append(len(rows))
            original(self, graph, rows)

        monkeypatch.setattr(Restriction, "__init__", counting_init)
        monkeypatch.setattr(worker_module.Restriction, "__init__", counting_init)
        server.predict([candidate])
        # Exactly one plan — the logits layer's own row; layer 1 short-circuited.
        assert len(builds) == 1 and builds[0] == 1

    def test_without_halo_the_same_request_builds_both_plans(self, small_graph, monkeypatch):
        model = _model(small_graph)
        server = _server(model, small_graph, halo_tier=False)
        shard_a, shard_b = server.shards
        server.predict(shard_a.core_nodes)
        builds = []
        original = Restriction.__init__

        def counting_init(self, graph, rows):
            builds.append(len(rows))
            original(self, graph, rows)

        monkeypatch.setattr(Restriction, "__init__", counting_init)
        server.predict([int(shard_b.core_nodes[0])])
        assert len(builds) == 2  # logits plan + layer-1 plan
