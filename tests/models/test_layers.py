"""Unit tests for the four GNN layer types (dense and compressed)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.compression import CompressionConfig
from repro.graph import NeighborSampler
from repro.models import GATLayer, GCNLayer, GGCNLayer, GraphSAGEPoolLayer
from repro.models.base import GNNLayer, apply_linear
from repro.tensor import Tensor

DENSE = CompressionConfig(block_size=1)
COMPRESSED = CompressionConfig(block_size=4)


@pytest.fixture
def block_and_features(small_graph, rng):
    sampler = NeighborSampler(small_graph, fanouts=(4,), seed=0)
    batch = sampler.sample(np.arange(10))
    features = Tensor(batch.input_features(small_graph), requires_grad=True)
    return batch.blocks[0], features


class TestApplyLinear:
    def test_three_dimensional_input(self, rng):
        layer = nn.Linear(6, 4, rng=rng)
        x = Tensor(rng.standard_normal((2, 5, 6)))
        out = apply_linear(layer, x)
        assert out.shape == (2, 5, 4)
        assert np.allclose(out.data, x.data @ layer.weight.data.T + layer.bias.data)

    def test_circulant_three_dimensional_input(self, rng):
        layer = nn.BlockCirculantLinear(8, 6, 4, rng=rng)
        x = Tensor(rng.standard_normal((3, 4, 8)))
        out = apply_linear(layer, x)
        assert out.shape == (3, 4, 6)
        dense = layer.weight_matrix()
        assert np.allclose(out.data, x.data @ dense.T + layer.bias.data)

    def test_two_dimensional_passthrough(self, rng):
        layer = nn.Linear(6, 4, rng=rng)
        x = Tensor(rng.standard_normal((5, 6)))
        assert np.allclose(apply_linear(layer, x).data, layer(x).data)


@pytest.mark.parametrize("config", [DENSE, COMPRESSED], ids=["dense", "circulant"])
class TestLayerForward:
    def test_gcn_layer(self, block_and_features, small_graph, config):
        block, features = block_and_features
        layer = GCNLayer(small_graph.num_features, 8, config, rng=np.random.default_rng(0))
        out = layer(features, block)
        assert out.shape == (block.num_dst, 8)
        assert (out.data >= 0).all()  # ReLU output

    def test_gs_pool_layer(self, block_and_features, small_graph, config):
        block, features = block_and_features
        layer = GraphSAGEPoolLayer(small_graph.num_features, 8, config, rng=np.random.default_rng(0))
        out = layer(features, block)
        assert out.shape == (block.num_dst, 8)

    def test_ggcn_layer(self, block_and_features, small_graph, config):
        block, features = block_and_features
        layer = GGCNLayer(small_graph.num_features, 8, config, rng=np.random.default_rng(0))
        out = layer(features, block)
        assert out.shape == (block.num_dst, 8)

    def test_gat_layer(self, block_and_features, small_graph, config):
        block, features = block_and_features
        layer = GATLayer(small_graph.num_features, 8, config, num_heads=2, rng=np.random.default_rng(0))
        out = layer(features, block)
        assert out.shape == (block.num_dst, 8)

    def test_gradients_reach_inputs_and_weights(self, block_and_features, small_graph, config):
        block, features = block_and_features
        layer = GraphSAGEPoolLayer(small_graph.num_features, 6, config, rng=np.random.default_rng(1))
        layer(features, block).sum().backward()
        assert features.grad is not None
        for param in layer.parameters():
            assert param.grad is not None


class TestLayerDetails:
    def test_gcn_has_no_aggregation_weights(self):
        assert GCNLayer.has_aggregation_weights is False

    def test_undeclared_layers_default_to_aggregation_weights(self):
        # The serving memo trusts a False: a layer must opt in, never by omission.
        assert GNNLayer.has_aggregation_weights is True

    def test_other_layers_have_aggregation_weights(self):
        assert GraphSAGEPoolLayer.has_aggregation_weights
        assert GGCNLayer.has_aggregation_weights
        assert GATLayer.has_aggregation_weights

    def test_final_layer_without_activation_can_be_negative(self, block_and_features, small_graph):
        block, features = block_and_features
        layer = GCNLayer(small_graph.num_features, 8, DENSE, activation=False, rng=np.random.default_rng(2))
        out = layer(features, block)
        assert (out.data < 0).any()

    def test_gat_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            GATLayer(8, 7, DENSE, num_heads=2)

    def test_compressed_layers_use_circulant_weights(self):
        layer = GraphSAGEPoolLayer(16, 8, COMPRESSED, rng=np.random.default_rng(0))
        assert isinstance(layer.pool_fc, nn.BlockCirculantLinear)
        assert isinstance(layer.combine_fc, nn.BlockCirculantLinear)

    def test_aggregator_only_compression(self):
        config = CompressionConfig(block_size=4, compress_combination=False)
        layer = GraphSAGEPoolLayer(16, 8, config, rng=np.random.default_rng(0))
        assert isinstance(layer.pool_fc, nn.BlockCirculantLinear)
        assert not isinstance(layer.combine_fc, nn.BlockCirculantLinear)

    def test_gat_attention_normalised(self, block_and_features, small_graph):
        block, features = block_and_features
        layer = GATLayer(small_graph.num_features, 8, DENSE, num_heads=1, rng=np.random.default_rng(0))
        head = layer.heads[0]
        h_self = features.index_select(block.self_index)
        h_neigh = features.index_select(block.neighbor_index.reshape(-1)).reshape(
            block.num_dst, block.fanout, small_graph.num_features
        )
        out = head(h_self, h_neigh)
        assert out.shape == (block.num_dst, 8)
