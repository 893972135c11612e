"""The embedding store honours the weight-signature invalidation discipline.

A training step must drop the shared :class:`HaloStore`'s rows exactly once
and never serve them stale, and every worker counts the weight change it
served across.
"""

from __future__ import annotations

import numpy as np

from repro.models import Trainer, TrainingConfig, create_model
from repro.serving import HaloStore, InferenceServer, ManualClock, ServingConfig

NUM_NODES = 12
DIM = 3


class TestHaloStoreInvalidation:
    def test_signature_protocol_drops_rows_once(self):
        store = HaloStore(num_nodes=NUM_NODES)
        assert not store.ensure_signature((0,))
        store.publish(1, np.array([1, 2]), np.ones((2, DIM)))
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
        # Exactly one invalidation of the shared tier, and each worker
        # counts the one weight change it served across.
        assert server.halo_store.stats.invalidations == 1
        for worker in server.workers:
            assert worker.cache_stats.invalidations == 1
