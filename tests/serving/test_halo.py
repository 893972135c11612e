"""Cross-shard halo exchange: the HaloStore tier and its worker wiring.

The headline invariants:

* a boundary row computed during one shard's flush is *gathered* — never
  recomputed — by a neighbouring shard (or a sibling replica);
* a miss set satisfied entirely from the halo tier short-circuits without
  building a restriction plan at all;
* predictions are bitwise identical with the tier on or off;
* the tier is an exact-mode feature only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.restriction import Restriction
from repro.models import create_model
from repro.serving import HaloStore, InferenceServer, ManualClock, ServingConfig
from repro.serving import worker as worker_module

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


class TestHaloStoreUnit:
    def test_publish_then_gather_only_for_eligible_nodes(self):
        store = HaloStore(num_nodes=10, shared_nodes=np.array([2, 5, 7]))
        values = np.arange(2 * DIM, dtype=np.float64).reshape(2, DIM)
        store.publish(1, np.array([2, 3]), values)  # node 3 is not boundary: ignored
        assert len(store) == 1
        mask, rows = store.take_mask(1, np.array([2, 3, 5]))
        assert mask.tolist() == [True, False, False]
        assert np.array_equal(rows, values[:1])
        # Stats count boundary-eligible lookups only (3 never counts).
        assert store.stats.hits == 1 and store.stats.misses == 1
        assert store.stats.insertions == 1

    def test_take_before_any_publish(self):
        store = HaloStore(num_nodes=8, shared_nodes=np.array([1, 2]))
        mask, rows = store.take_mask(0, np.array([1, 4]))
        assert not mask.any() and rows.size == 0
        assert store.stats.misses == 1  # only the eligible node counts

    def test_signature_invalidation_drops_entries_keeps_slabs(self):
        store = HaloStore(num_nodes=8, shared_nodes=np.array([0, 1]))
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
        store = HaloStore(num_nodes=8, shared_nodes=np.array([0, 1]))
        store.publish(1, np.array([0]), np.ones((1, DIM)))
        with pytest.raises(ValueError):
            store.publish(1, np.array([1]), np.ones((1, DIM + 1)))
        with pytest.raises(ValueError):
            store.publish(1, np.array([0]), np.ones(DIM))  # not 2-D
        with pytest.raises(ValueError):
            HaloStore(num_nodes=4, shared_nodes=np.array([9]))


class TestEngineWiring:
    def test_halo_store_built_only_when_it_can_help(self, small_graph):
        model = _model(small_graph)
        assert _server(model, small_graph).halo_store is not None
        assert _server(model, small_graph, halo_tier=False).halo_store is None
        assert _server(model, small_graph, num_shards=1).halo_store is None
        replicated = _server(model, small_graph, num_shards=1, num_replicas=2)
        assert replicated.halo_store is not None
        # With replicas every held node is exchangeable, not just cut nodes.
        assert replicated.halo_store.num_shared == small_graph.num_nodes

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
            layer1 = model.layers[0].forward_full(Tensor(graph.features), graph).data
        store = server.halo_store
        checked = 0
        for node in store.shared_nodes:
            if store.contains(1, int(node)):
                _, values = store.take_mask(1, np.array([node]))
                assert np.array_equal(values[0], layer1[node]), f"stale/wrong row for {node}"
                checked += 1
        assert checked > 0


class TestFreshPlansPerFlush:
    """Every flush builds its restriction plans fresh.

    The only way a miss set recurs on warm traffic is the same batch replayed
    after a weight bump (the embedding cache answers a node after its first
    miss), so that replay is the sequence pinned here.
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

    def test_replay_after_weight_bump_rebuilds_every_plan(self, small_graph, monkeypatch):
        model = _model(small_graph)
        server = _server(model, small_graph, halo_tier=False)
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
        assert builds[len(first):] == first  # same miss sets, built again

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
