"""The performance model of Section III-D (Equations 3–7).

Given a :class:`repro.workloads.GNNWorkload` and a
:class:`repro.hardware.config.CirCoreConfig`, estimate how many cycles the
pipelined CirCore + VPU need per target node and in total.

For every weight-matrix product of shape ``N x M`` (block size ``n``,
``p = ceil(N/n)``, ``q = ceil(M/n)``) that a layer performs ``count`` times
per node, the three CirCore stages and the VPU contribute:

* FFT stage   (Eq. 3):  ``alpha(n) * ceil(count * q / x)``
* MAC stage   (Eq. 4):  ``count * ceil(q / r) * ceil(p / c) * ceil(n / l)``
* IFFT stage  (Eq. 5):  ``alpha(n) * ceil(count * p / y)``
* VPU         (Eq. 6):  ``ceil(elements / (m * 16))`` for the element-wise work

and, because the stages are pipelined, the per-node cycles of a layer are the
*maximum* over the four stages of their summed work (the paper's
``cycle(k) = max(...)``).  The total is ``sum_k cycle(k) * |V|`` (Eq. 7).

The model keeps the paper's aggregation-first layer order for every layer,
GCN's narrowing output layer included, because it models the accelerator,
which aggregates first.  The CPU inference path combines first in those
layers (:class:`repro.models.gcn.GCNLayer`); its measured time is not what
this model predicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..hardware.config import CirCoreConfig, HardwareConstants, ZC706
from ..workloads.spec import GNNWorkload, LayerWorkload, Phase

__all__ = ["StageCycles", "LayerEstimate", "PerformanceEstimate", "stage_cycles_per_node", "estimate_performance"]

_ALL_PHASES: Tuple[Phase, ...] = ("aggregation", "combination")


@dataclass(frozen=True)
class StageCycles:
    """Per-node cycle counts of the four pipeline resources."""

    fft: float
    mac: float
    ifft: float
    vpu: float

    @property
    def bottleneck(self) -> float:
        """The pipelined per-node cycles (Eq. 'cycle(k) = max ...')."""
        return max(self.fft, self.mac, self.ifft, self.vpu)

    @property
    def bottleneck_stage(self) -> str:
        stages = {"fft": self.fft, "mac": self.mac, "ifft": self.ifft, "vpu": self.vpu}
        return max(stages, key=stages.get)

    def as_dict(self) -> Dict[str, float]:
        return {"fft": self.fft, "mac": self.mac, "ifft": self.ifft, "vpu": self.vpu}


@dataclass(frozen=True)
class LayerEstimate:
    """Cycle estimate of one GNN layer."""

    layer_index: int
    stages: StageCycles

    @property
    def cycles_per_node(self) -> float:
        return self.stages.bottleneck


@dataclass(frozen=True)
class PerformanceEstimate:
    """End-to-end cycle/latency estimate of a GNN task on BlockGNN."""

    workload_model: str
    dataset: str
    config: CirCoreConfig
    layers: Tuple[LayerEstimate, ...]
    num_nodes: int
    #: total DRAM feature traffic of the task (bytes) and the available
    #: bandwidth; node prefetching overlaps transfers with compute, so the
    #: end-to-end latency is the maximum of the compute and memory times.
    dram_bytes: float = 0.0
    dram_bandwidth: float = ZC706.dram_bandwidth_bytes_per_s

    @property
    def cycles_per_node(self) -> float:
        return sum(layer.cycles_per_node for layer in self.layers)

    @property
    def total_cycles(self) -> float:
        """Equation 7: ``sum_k cycle(k) * |V|``."""
        return self.cycles_per_node * self.num_nodes

    @property
    def compute_seconds(self) -> float:
        return self.total_cycles / self.config.frequency_hz

    @property
    def memory_seconds(self) -> float:
        if self.dram_bandwidth <= 0:
            return 0.0
        return self.dram_bytes / self.dram_bandwidth

    @property
    def latency_seconds(self) -> float:
        """Compute/memory roofline: prefetching hides the smaller of the two."""
        return max(self.compute_seconds, self.memory_seconds)

    @property
    def throughput_nodes_per_second(self) -> float:
        latency = self.latency_seconds
        return self.num_nodes / latency if latency > 0 else float("inf")

    def bottleneck_stages(self) -> List[str]:
        return [layer.stages.bottleneck_stage for layer in self.layers]

    def describe(self) -> str:
        params = self.config.describe()
        return (
            f"{self.workload_model}/{self.dataset} on x={params['x']} y={params['y']} "
            f"r={params['r']} c={params['c']} l={params['l']} m={params['m']}: "
            f"{self.total_cycles / 1e6:.1f}M cycles, {self.latency_seconds * 1e3:.2f} ms"
        )


def _matvec_stage_cycles(
    out_features: int,
    in_features: int,
    count: float,
    config: CirCoreConfig,
    constants: HardwareConstants,
) -> Tuple[float, float, float]:
    """FFT / MAC / IFFT cycles for ``count`` products of an ``N x M`` matrix per node."""
    n = config.block_size
    p = math.ceil(out_features / n)
    q = math.ceil(in_features / n)
    alpha = constants.fft_cycles(n)
    fft = alpha * math.ceil(count * q / config.fft_channels)
    mac = count * math.ceil(q / config.systolic_rows) * math.ceil(p / config.systolic_cols) * math.ceil(
        n / config.pe_parallelism
    )
    ifft = alpha * math.ceil(count * p / config.ifft_channels)
    return fft, mac, ifft


def stage_cycles_per_node(
    layer: LayerWorkload,
    config: CirCoreConfig,
    constants: HardwareConstants = ZC706,
    phases: Sequence[Phase] = _ALL_PHASES,
) -> StageCycles:
    """Equations 3–6 for one layer, summed over the selected phases."""
    fft_total = 0.0
    mac_total = 0.0
    ifft_total = 0.0
    vpu_elements = 0.0
    for op in layer.matvecs:
        if op.phase not in phases:
            continue
        fft, mac, ifft = _matvec_stage_cycles(
            op.out_features, op.in_features, op.count_per_node, config, constants
        )
        fft_total += fft
        mac_total += mac
        ifft_total += ifft
    for op in layer.vector_ops:
        if op.phase in phases:
            vpu_elements += op.elements_per_node
    vpu_width = config.vpu_lanes * constants.vpu_simd_width
    vpu_total = math.ceil(vpu_elements / vpu_width) if vpu_elements else 0.0
    return StageCycles(fft=fft_total, mac=mac_total, ifft=ifft_total, vpu=float(vpu_total))


def estimate_performance(
    workload: GNNWorkload,
    config: CirCoreConfig,
    constants: HardwareConstants = ZC706,
    phases: Sequence[Phase] = _ALL_PHASES,
    num_nodes: Optional[int] = None,
) -> PerformanceEstimate:
    """Estimate the cycles/latency of running ``workload`` on ``config``.

    ``phases`` may be restricted to ``("aggregation",)`` to reproduce the
    paper's Table V, which uses the aggregation-dominant approximation for
    GS-Pool.  ``num_nodes`` overrides the workload's node count (used when a
    graph is partitioned across compute passes).
    """
    layer_estimates = tuple(
        LayerEstimate(layer.layer_index, stage_cycles_per_node(layer, config, constants, phases))
        for layer in workload.layers
    )
    nodes = num_nodes if num_nodes is not None else workload.num_nodes
    scale = nodes / workload.num_nodes if workload.num_nodes else 1.0
    traffic = sum(workload.total_bytes(phase) for phase in phases) * scale
    return PerformanceEstimate(
        workload_model=workload.model,
        dataset=workload.dataset,
        config=config,
        layers=layer_estimates,
        num_nodes=nodes,
        dram_bytes=traffic,
        dram_bandwidth=constants.dram_bandwidth_bytes_per_s,
    )
