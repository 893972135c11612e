"""Tests for the CirCore pipeline and the BlockGNN accelerator functional model.

The central claim checked here: the hardware datapath (FFT channels ->
spectral systolic MACs -> IFFT channels -> VPU bias/activation) computes
exactly what the software library computes, for both single layers and layer
sequences — i.e. the accelerator is a faithful implementation of Algorithm 1.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.compression import (
    BlockCirculantSpec,
    CompressionConfig,
    block_circulant_matmul,
    random_block_circulant,
)
from repro.hardware import (
    BLOCKGNN_BASE,
    BlockGNNAccelerator,
    CirCore,
    CirCoreConfig,
    CommandType,
)
from repro.models import create_model
from repro.tensor import Tensor


@pytest.fixture
def small_core_config():
    return CirCoreConfig(
        fft_channels=4,
        ifft_channels=4,
        systolic_rows=2,
        systolic_cols=2,
        pe_parallelism=1,
        vpu_lanes=1,
        block_size=8,
    )


class TestCirCoreConfig:
    def test_paper_symbols(self):
        config = BLOCKGNN_BASE
        assert (config.x, config.y, config.r, config.c, config.l, config.m) == (16, 16, 4, 4, 1, 1)
        assert config.num_pes == 16
        assert config.describe() == {"x": 16, "y": 16, "r": 4, "c": 4, "l": 1, "m": 1}

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CirCoreConfig(0, 1, 1, 1)
        with pytest.raises(ValueError):
            CirCoreConfig(1, 1, 1, 1, frequency_hz=0)

    def test_with_block_size(self):
        assert BLOCKGNN_BASE.with_block_size(64).block_size == 64


class TestCirCoreDatapath:
    def test_matvec_matches_software_kernel(self, small_core_config, rng):
        spec = BlockCirculantSpec(24, 16, 8)
        weights = random_block_circulant(spec, rng)
        core = CirCore(small_core_config)
        core.load_weights(weights, spec)
        x = rng.standard_normal((6, 16))
        assert np.allclose(core.matvec(x), block_circulant_matmul(x, weights, spec))

    def test_matvec_single_vector(self, small_core_config, rng):
        spec = BlockCirculantSpec(8, 8, 8)
        weights = random_block_circulant(spec, rng)
        core = CirCore(small_core_config)
        core.load_weights(weights, spec)
        x = rng.standard_normal(8)
        assert core.matvec(x).shape == (8,)

    def test_matvec_with_padding(self, small_core_config, rng):
        spec = BlockCirculantSpec(10, 14, 8)
        weights = random_block_circulant(spec, rng)
        core = CirCore(small_core_config)
        core.load_weights(weights, spec)
        x = rng.standard_normal((3, 14))
        assert np.allclose(core.matvec(x), block_circulant_matmul(x, weights, spec))

    def test_block_size_mismatch_rejected(self, small_core_config, rng):
        spec = BlockCirculantSpec(8, 8, 4)
        with pytest.raises(ValueError):
            CirCore(small_core_config).load_weights(random_block_circulant(spec, rng), spec)

    def test_requires_loaded_weights(self, small_core_config, rng):
        with pytest.raises(RuntimeError):
            CirCore(small_core_config).matvec(rng.standard_normal((1, 16)))

    def test_stage_cycles_match_component_formulas(self, small_core_config, rng):
        spec = BlockCirculantSpec(24, 16, 8)
        core = CirCore(small_core_config)
        core.load_weights(random_block_circulant(spec, rng), spec)
        stages = core.stage_cycles(10)
        assert stages["fft"] == core.fft_unit.cycles_for(10 * spec.q)
        assert stages["mac"] == core.systolic.cycles_for(10, p=spec.p, q=spec.q)
        assert stages["ifft"] == core.ifft_unit.cycles_for(10 * spec.p)
        assert core.cycles_for_vectors(10) >= max(stages.values())

    def test_dsp_cost_sums_components(self, small_core_config):
        core = CirCore(small_core_config)
        assert core.dsp_cost == core.fft_unit.dsp_cost + core.ifft_unit.dsp_cost + core.systolic.dsp_cost


class TestBlockGNNAccelerator:
    def _accelerator(self):
        config = CirCoreConfig(
            fft_channels=4, ifft_channels=4, systolic_rows=2, systolic_cols=2, block_size=8
        )
        return BlockGNNAccelerator(config)

    def test_execute_linear_matches_nn_layer(self, rng):
        accelerator = self._accelerator()
        layer = nn.BlockCirculantLinear(16, 24, 8, rng=rng)
        accelerator.load_layer("fc", layer)
        x = rng.standard_normal((5, 16))
        hardware_out = accelerator.execute_linear("fc", x)
        software_out = layer(Tensor(x)).data
        assert np.allclose(hardware_out, software_out)

    def test_execute_linear_with_activation(self, rng):
        accelerator = self._accelerator()
        layer = nn.BlockCirculantLinear(16, 16, 8, rng=rng)
        accelerator.load_layer("fc", layer, activation="relu")
        out = accelerator.execute_linear("fc", rng.standard_normal((4, 16)), apply_activation=True)
        assert (out >= 0).all()

    def test_execute_sequence_matches_software_mlp(self, rng):
        accelerator = self._accelerator()
        first = nn.BlockCirculantLinear(16, 16, 8, rng=rng)
        second = nn.BlockCirculantLinear(16, 8, 8, rng=rng)
        accelerator.load_layer("first", first, activation="relu")
        accelerator.load_layer("second", second, activation="relu")
        x = rng.standard_normal((3, 16))
        hardware_out = accelerator.execute_sequence(x, ["first", "second"])
        software_out = second(first(Tensor(x)).relu()).data
        assert np.allclose(hardware_out, software_out)

    def test_aggregate_max_pool_matches_model_math(self, rng):
        accelerator = self._accelerator()
        pool = nn.BlockCirculantLinear(16, 16, 8, rng=rng)
        accelerator.load_layer("pool", pool)
        neighbors = rng.standard_normal((4, 5, 16))
        hardware_out = accelerator.aggregate_max_pool("pool", neighbors)
        projected = pool(Tensor(neighbors.reshape(-1, 16))).data.reshape(4, 5, 16)
        software_out = np.maximum(projected, 0).max(axis=1)
        assert np.allclose(hardware_out, software_out)

    def test_load_model_registers_all_circulant_layers(self, rng):
        accelerator = BlockGNNAccelerator(
            CirCoreConfig(fft_channels=4, ifft_channels=4, systolic_rows=2, systolic_cols=2, block_size=4)
        )
        model = create_model("GCN", 16, 8, 3, compression=CompressionConfig(block_size=4), seed=0)
        stored = accelerator.load_model(model)
        assert len(stored) == 2
        assert accelerator.stored_layers() == stored

    def test_block_size_mismatch_rejected(self, rng):
        accelerator = self._accelerator()
        with pytest.raises(ValueError):
            accelerator.load_layer("fc", nn.BlockCirculantLinear(16, 16, 4, rng=rng))

    def test_unknown_layer_rejected(self, rng):
        with pytest.raises(KeyError):
            self._accelerator().execute_linear("missing", rng.standard_normal((1, 16)))

    def test_command_log_and_utilization(self, rng):
        accelerator = self._accelerator()
        layer = nn.BlockCirculantLinear(16, 16, 8, rng=rng)
        accelerator.load_layer("fc", layer)
        accelerator.execute_linear("fc", rng.standard_normal((2, 16)))
        kinds = [command.kind for command in accelerator.command_log]
        assert CommandType.LOAD_WEIGHTS in kinds
        assert CommandType.LOAD_FEATURES in kinds
        assert CommandType.STORE_FEATURES in kinds
        report = accelerator.utilization_report()
        assert report["fft_busy_cycles"] > 0
        assert report["weight_buffer_utilization"] > 0
        accelerator.reset_stats()
        assert accelerator.utilization_report()["fft_busy_cycles"] == 0

    def test_dense_cache_leaves_accelerator_and_perfmodel_unchanged(self, rng):
        # A forward fills each layer's W^T cache; the accelerator reads the
        # spectra, and the perfmodel, Figure 6 and the
        # compression ratios depend on shapes alone, so none of them moves.
        from repro.experiments.figure6 import run_figure6
        from repro.perfmodel.search import SearchSpace
        from repro.workloads import build_workload

        model = create_model("GCN", 64, 64, 5, compression=CompressionConfig(block_size=8), seed=0)
        linears = [
            (path, module)
            for path, module in model.named_modules()
            if isinstance(module, nn.BlockCirculantLinear)
        ]
        assert len(linears) == 2
        x = rng.standard_normal((6, 64))
        space = SearchSpace(max_systolic_rows=4, max_systolic_cols=4, pe_parallelism_choices=(1,),
                            vpu_lane_choices=(1,))

        def snapshot():
            accelerator = self._accelerator()
            accelerator.load_model(model)
            workload = build_workload("GCN", "cora", hidden_features=64)
            return (
                [accelerator.execute_linear(path, x) for path, _ in linears],
                [layer.compression_ratio() for _, layer in linears],
                accelerator.estimate_latency(workload).total_cycles,
                run_figure6(models=("GCN",), datasets=("cora",), block_size=8, space=space).entries,
            )

        before = snapshot()
        h = Tensor(x)
        for _, layer in linears:
            assert "dense" not in layer._weight_caches
            h = layer(h)
            assert "dense" in layer._weight_caches
        outputs, ratios, cycles, figure6 = snapshot()
        for got, want in zip(outputs, before[0]):
            assert np.array_equal(got, want)
        assert ratios == before[1] == [8.0, 5.0]
        assert cycles == before[2]
        assert figure6 == before[3]
        # The datapath still computes what the layer computes.
        assert np.allclose(outputs[0], linears[0][1](Tensor(x)).data)

    def test_estimate_latency_and_resources(self):
        from repro.workloads import build_workload

        accelerator = BlockGNNAccelerator(BLOCKGNN_BASE)
        workload = build_workload("GS-Pool", "cora", hidden_features=128)
        estimate = accelerator.estimate_latency(workload)
        assert estimate.total_cycles > 0
        resources = accelerator.estimate_resources()
        assert resources.dsp <= 900
