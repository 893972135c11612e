"""Latency / load / cache metrics of the serving engine, plus the perfmodel
bridge that prices a request in accelerator cycles per shard.

``ServerStats`` is an immutable snapshot assembled by
:meth:`repro.serving.InferenceServer.stats`; ``render()`` gives the text
surface printed by the ``serve-bench`` CLI command and saved by
``benchmarks/bench_serving.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.datasets import DatasetStats
from ..hardware.config import CirCoreConfig
from ..perfmodel.model import PerformanceEstimate, estimate_performance
from ..workloads.builder import build_workload
from .cache import CacheStats
from .shard import GraphShard

__all__ = ["WorkerLoad", "ServerStats", "estimate_shard_request_cycles"]


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


@dataclass(frozen=True)
class WorkerLoad:
    """Work executed by one worker (one shard replica)."""

    worker_id: int
    shard_id: int
    batches: int
    nodes: int
    core_nodes: int
    halo_nodes: int
    peak_concurrency: int = 0    # max batches in flight on this worker at once
    state: str = "healthy"       # healthy | suspect | dead at snapshot time
    failures: int = 0            # dispatch attempts that failed on this replica
    deaths: int = 0              # times the replica reached the failure threshold
    epoch: int = 0               # replica incarnation (bumped per rebuild)
    pid: Optional[int] = None    # worker process id (executor="process" only)
    heartbeat_age: Optional[float] = None  # seconds since last control-channel beat
    rss_bytes: Optional[int] = None        # worker-process resident set size


@dataclass(frozen=True)
class ServerStats:
    """Snapshot of a serving run: latency percentiles, cache, per-shard load."""

    completed_requests: int
    latencies: np.ndarray            # seconds, one entry per completed request
    batch_sizes: np.ndarray          # executed batch sizes, one per flush
    cache: CacheStats
    workers: Tuple[WorkerLoad, ...]
    size_flushes: int
    delay_flushes: int
    forced_flushes: int
    duration: float                  # clock time from first submit to last completion
    executor: str = "serial"         # which FlushExecutor served the run
    peak_concurrency: int = 0        # max flush tasks running simultaneously
    rejected_requests: int = 0       # turned away at admission (queue full)
    shed_requests: int = 0           # evicted from a full queue (shed_oldest)
    expired_requests: int = 0        # flushed after their deadline passed
    #: wall-clock seconds per flush stage, summed over workers
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: cross-shard halo tier counters (eligible boundary lookups only)
    halo: CacheStats = field(default_factory=CacheStats)
    halo_tier: bool = False          # was a shared HaloStore active for the run?
    failed_requests: int = 0         # retries exhausted / no dispatchable replica
    retried_requests: int = 0        # request-attempts that were retried
    failovers: int = 0               # batches completed on a sibling after a failure
    worker_failures: int = 0         # dispatch attempts that raised (real or injected)
    injected_faults: int = 0         # faults the FaultPlan actually fired
    block_waits: int = 0             # condition waits by blocked submitters
    block_self_flushes: int = 0      # blocked submitters that flushed for themselves
    #: per-class terminal ledger: {class: {status: count}} (empty = classless)
    class_requests: Dict[str, Dict[str, int]] = field(default_factory=dict)
    ingress: str = "sync"            # arrival path ("sync" or "thread")
    supervisor_restarts: int = 0     # replica rebuilds (on death + operator)
    prewarmed_rows: int = 0          # cache rows pre-warmed from the halo tier on rebuild
    retry_attempts: int = 0          # batch retries actually performed

    # -- accounting --------------------------------------------------------------

    @property
    def submitted_requests(self) -> int:
        """Every request that reached a terminal state (nothing is dropped)."""
        return (
            self.completed_requests
            + self.rejected_requests
            + self.shed_requests
            + self.expired_requests
            + self.failed_requests
        )

    # -- latency ---------------------------------------------------------------

    @property
    def p50_latency(self) -> float:
        return _percentile(self.latencies, 50.0)

    @property
    def p95_latency(self) -> float:
        return _percentile(self.latencies, 95.0)

    @property
    def p99_latency(self) -> float:
        return _percentile(self.latencies, 99.0)

    @property
    def p999_latency(self) -> float:
        return _percentile(self.latencies, 99.9)

    @property
    def mean_latency(self) -> float:
        return float(self.latencies.mean()) if len(self.latencies) else float("nan")

    @property
    def throughput(self) -> float:
        """Completed requests per clock second.

        Guarded denominators: a run that completed nothing has throughput
        0.0 (not a division error, not a misleading ``inf``); a run that
        completed work in zero clock time (ManualClock that never advanced)
        is genuinely instantaneous — ``inf``.
        """
        if self.duration > 0:
            return self.completed_requests / self.duration
        return float("inf") if self.completed_requests else 0.0

    @property
    def mean_batch_size(self) -> float:
        return float(self.batch_sizes.mean()) if len(self.batch_sizes) else float("nan")

    # -- cache / load ------------------------------------------------------------

    @property
    def cache_hit_rate(self) -> float:
        return self.cache.hit_rate

    @property
    def halo_hit_rate(self) -> float:
        """Hit rate of the cross-shard halo tier over its eligible lookups."""
        return self.halo.hit_rate

    @property
    def plan_hit_rate(self) -> float:
        return 0.0  # every flush builds its Restriction fresh; kept for the e2e ledger row

    @property
    def load_imbalance(self) -> float:
        """Max over mean nodes served per worker (1.0 = perfectly balanced)."""
        nodes = np.array([worker.nodes for worker in self.workers], dtype=np.float64)
        busy = nodes[nodes > 0]
        if len(busy) == 0:
            return float("nan")
        mean = nodes.mean()
        return float(nodes.max() / mean) if mean > 0 else float("nan")

    @property
    def stage_total(self) -> float:
        """Total seconds attributed to flush stages across all workers."""
        return float(sum(self.stage_seconds.values()))

    @staticmethod
    def _rate(numerator: int, denominator: int) -> str:
        """A percentage, or ``n/a`` when nothing was measured.

        A run in which every request failed or was shed makes zero lookups;
        rendering that as a 0.0% hit-rate would misread as "the cache was
        cold", so empty denominators render ``n/a`` instead.
        """
        if denominator <= 0:
            return "n/a"
        return f"{numerator / denominator * 100:.1f}%"

    @staticmethod
    def _ms(seconds: float) -> str:
        """Milliseconds, or ``n/a`` for the NaN of an empty latency sample."""
        if not np.isfinite(seconds):
            return "n/a"
        return f"{seconds * 1e3:.3f} ms"

    def render(self) -> str:
        if self.duration > 0 and np.isfinite(self.throughput):
            throughput = f"{self.throughput:.1f} req/s"
        elif self.completed_requests:
            throughput = "inf req/s (zero clock duration)"
        else:
            throughput = "n/a (nothing completed)"
        lines = [
            f"{self.completed_requests} requests in "
            f"{len(self.batch_sizes)} batches (mean size "
            f"{'n/a' if not len(self.batch_sizes) else f'{self.mean_batch_size:.1f}'})",
            f"  executor {self.executor} (peak concurrency {self.peak_concurrency})",
            f"  latency p50 {self._ms(self.p50_latency)}   "
            f"p95 {self._ms(self.p95_latency)}   "
            f"p99 {self._ms(self.p99_latency)}   "
            f"p99.9 {self._ms(self.p999_latency)}   mean {self._ms(self.mean_latency)}",
            f"  throughput {throughput} over {self.duration * 1e3:.1f} ms",
            f"  flushes: {self.size_flushes} size, {self.delay_flushes} delay, "
            f"{self.forced_flushes} forced",
            f"  admission: {self.rejected_requests} rejected, {self.shed_requests} shed, "
            f"{self.expired_requests} expired, {self.failed_requests} failed "
            f"({self.submitted_requests} requests accounted for)",
            f"  embedding cache: {self.cache.hits} hits / {self.cache.lookups} lookups "
            f"({self._rate(self.cache.hits, self.cache.lookups)}), "
            f"{self.cache.evictions} evictions, "
            f"{self.cache.invalidations} invalidations",
        ]
        if self.worker_failures or self.retried_requests or self.failovers or self.injected_faults:
            lines.append(
                f"  faults: {self.worker_failures} worker failures "
                f"({self.injected_faults} injected), {self.retried_requests} retried, "
                f"{self.failovers} failovers"
            )
        if self.supervisor_restarts:
            lines.append(
                f"  self-healing: {self.supervisor_restarts} replica rebuilds, "
                f"{self.prewarmed_rows} cache rows pre-warmed from the halo tier"
            )
        if self.block_waits or self.block_self_flushes:
            lines.append(
                f"  backpressure: {self.block_waits} waits, "
                f"{self.block_self_flushes} self-flushes by blocked submitters"
            )
        active_classes = {
            name: counts
            for name, counts in self.class_requests.items()
            if sum(counts.values())
        }
        if len(active_classes) > 1:
            for name, counts in active_classes.items():
                lines.append(
                    f"  class {name}: {counts.get('completed', 0)} completed, "
                    f"{counts.get('shed', 0)} shed, {counts.get('expired', 0)} expired, "
                    f"{counts.get('rejected', 0)} rejected, "
                    f"{counts.get('failed', 0)} failed"
                )
        if self.halo_tier:
            lines.append(
                f"  halo tier: {self.halo.hits} hits / {self.halo.lookups} boundary lookups "
                f"({self._rate(self.halo.hits, self.halo.lookups)}), "
                f"{self.halo.insertions} published, "
                f"{self.halo.invalidations} invalidations"
                + (f", {self.halo.discarded} discarded" if self.halo.discarded else "")
            )
        if self.stage_total > 0:
            total = self.stage_total
            breakdown = "   ".join(
                f"{name} {seconds * 1e3:.2f} ms ({seconds / total * 100:.0f}%)"
                for name, seconds in self.stage_seconds.items()
                if seconds > 0
            )
            lines.append(f"  flush stages: {breakdown}")
        for worker in self.workers:
            health = ""
            if worker.state != "healthy" or worker.failures or worker.deaths:
                health = (
                    f", {worker.state}: {worker.failures} failures, "
                    f"{worker.deaths} deaths"
                )
            epoch = f", epoch {worker.epoch}" if worker.epoch else ""
            lines.append(
                f"  worker {worker.worker_id} (shard {worker.shard_id}): "
                f"{worker.nodes} nodes in {worker.batches} batches "
                f"[{worker.core_nodes} core + {worker.halo_nodes} halo, "
                f"peak {worker.peak_concurrency} in flight{health}{epoch}]"
            )
        if any(worker.pid is not None for worker in self.workers):
            lines.append("  worker processes:")
            lines.append("    worker     pid   epoch   heartbeat       rss")
            for worker in self.workers:
                if worker.pid is None:
                    continue
                beat = (
                    f"{worker.heartbeat_age * 1e3:.0f} ms ago"
                    if worker.heartbeat_age is not None
                    else "n/a"
                )
                rss = (
                    f"{worker.rss_bytes / (1024 * 1024):.1f} MiB"
                    if worker.rss_bytes is not None
                    else "n/a"
                )
                lines.append(
                    f"    {worker.worker_id:>6} {worker.pid:>7} {worker.epoch:>7} "
                    f"{beat:>11} {rss:>9}"
                )
        return "\n".join(lines)


def estimate_shard_request_cycles(
    model_name: str,
    shards: Sequence[GraphShard],
    num_classes: int,
    hidden_features: int = 512,
    num_layers: int = 2,
    sample_sizes: Sequence[int] = (25, 10),
    config: Optional[CirCoreConfig] = None,
    block_size: int = 128,
) -> List[PerformanceEstimate]:
    """Per-shard accelerator cost of serving one request batch (Eqs. 3–7).

    Each shard is priced as its own :class:`~repro.workloads.GNNWorkload`
    built from the shard's actual node/edge statistics, so the estimate
    reflects the partition's load balance: ``estimate.cycles_per_node`` is
    the accelerator cycles one core-node request costs on that shard.
    """
    if config is None:
        config = CirCoreConfig(
            fft_channels=16, ifft_channels=16, systolic_rows=4, systolic_cols=4,
            pe_parallelism=4, vpu_lanes=2, block_size=block_size,
        )
    estimates: List[PerformanceEstimate] = []
    for shard in shards:
        stats = DatasetStats(
            name=f"shard{shard.part_id}",
            num_nodes=max(shard.num_core, 1),
            num_edges=max(shard.graph.num_edges // 2, 1),
            num_features=shard.graph.num_features,
            num_classes=num_classes,
        )
        workload = build_workload(
            model_name,
            stats,
            hidden_features=hidden_features,
            num_layers=num_layers,
            sample_sizes=tuple(sample_sizes),
            num_classes=num_classes,
        )
        estimates.append(estimate_performance(workload, config, num_nodes=stats.num_nodes))
    return estimates
