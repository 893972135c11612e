"""Per-layer metrics of the traced run.

Two kinds.  *Attributions* split the traced section of a workload among the
layers it went through, from the recorded spans and from counters the
program already keeps (``server.stats()``, ``stage_seconds``).  *Probes* time
one public function of one layer on a fixed input.  Every time is a quiet
estimate (see ``estimator.py``); a layer the workload does not exercise
reads 0.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import time
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.compression import (
    BlockCirculantSpec,
    block_circulant_operation_count,
    circulant_linear,
    dense_operation_count,
    expand_block_circulant,
    spectral_weights,
)
from repro.graph import Restriction
from repro.nn.linear import BlockCirculantLinear
from repro.serving import InferenceServer, build_shards, estimate_shard_request_cycles
from repro.serving.timing import StageTimer
from repro.tensor.tensor import Tensor, no_grad

from . import spans
from .common import BATCH, BLOCK_SIZE, HIDDEN, WINDOW, build_model, clock, serving_config
from .estimator import nearest_rank, quiet
from .hostprobe import KERNELS, HostProbe
from .loops import ClosedLoop, Tally, open_loop, open_slices, poisson_offsets, summarise_slices
from .spec import BLOCK_SIZES, EXECUTORS, LADDER_RATES, PER_LAYER

ENGINE_SPANS = ("engine.submit_many", "engine.drain", "engine.submit", "engine.poll")
PREDICT_SPANS = ("worker.predict", "procplane.predict")


def zeros() -> Dict[str, float]:
    return {name: 0.0 for name, _, _ in PER_LAYER}


def quiet_time(call: Callable[[], object], repeats: int) -> float:
    """Quiet estimate, in seconds, of one ``call()`` (first call discarded)."""
    call()
    times = []
    for _ in range(repeats):
        start = clock()
        call()
        times.append(clock() - start)
    return quiet(times)


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------


def host_calibration() -> float:
    """The two host-probe kernels, one after the other: how fast the host was, in ms."""
    total = 0.0
    for kind in KERNELS:
        probe = HostProbe(kind)
        probe.sample(15)
        total += quiet(probe.samples)
    return 1e3 * total


def dense_twin(name: str, model, graph):
    """The same model with every block-circulant weight expanded to dense."""
    twin = build_model(name, graph, block_size=1)
    dense_modules = dict(twin.named_modules())
    dense_parameters = dict(twin.named_parameters())
    expanded = set()
    for path, module in model.named_modules():
        if isinstance(module, BlockCirculantLinear):
            dense_modules[path].weight.data[...] = expand_block_circulant(
                module.weight.data, module.spec
            )
            expanded.add(f"{path}.weight")
    for path, parameter in model.named_parameters():
        if path not in expanded:
            dense_parameters[path].data[...] = parameter.data
    return twin


def compression_probe() -> Dict[str, float]:
    """``circulant_linear`` on X[4096x128] . W[128x128] per block size."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4096, HIDDEN))
    out: Dict[str, float] = {}
    with no_grad():
        for n in BLOCK_SIZES:
            if n == 1:
                dense = rng.normal(size=(HIDDEN, HIDDEN))
                seconds = quiet_time(lambda: x @ dense.T, 15)
            else:
                spec = BlockCirculantSpec(HIDDEN, HIDDEN, n)
                weights = rng.normal(size=spec.weight_shape())
                w_hat = spectral_weights(weights, use_rfft=True)
                tensors = Tensor(x), Tensor(weights)
                seconds = quiet_time(
                    lambda: circulant_linear(*tensors, spec, use_rfft=True, spectral=w_hat), 15
                )
                if n == BLOCK_SIZE:
                    out[f"compression.spectral_weights_us.n{n}"] = 1e6 * quiet_time(
                        lambda: spectral_weights(weights, use_rfft=True), 15
                    )
                    out[f"compression.ops_ratio.n{n}"] = block_circulant_operation_count(
                        spec, use_rfft=True
                    ) / dense_operation_count(HIDDEN, HIDDEN)
            out[f"compression.matmul_us.n{n}"] = 1e6 * seconds
    return out


def aggregation_share(model, graph) -> float:
    """The paper's Table II split: aggregation / (aggregation + combination),
    from a full-row ``Restriction`` run through ``forward_restricted(timer=)``."""
    restriction = Restriction(graph, np.arange(graph.num_nodes))
    timer = StageTimer()
    with no_grad():
        for _ in range(2):
            hidden = Tensor(np.asarray(graph.features, dtype=np.float64))
            for layer in model.layers:
                hidden = layer.forward_restricted(hidden, restriction, timer=timer)
    aggregation, combination = timer.totals["aggregation"], timer.totals["combination"]
    return aggregation / (aggregation + combination)


def graph_probe(graph, key: str) -> Dict[str, float]:
    """``Restriction(graph, 64 seeded rows)``: the plan a cold batch builds."""
    rng = np.random.default_rng(0)
    row_sets = [np.sort(rng.choice(graph.num_nodes, BATCH, replace=False)) for _ in range(30)]
    times = []
    for rows in row_sets:
        start = clock()
        Restriction(graph, rows)
        times.append(clock() - start)
    return {key: 1e6 * quiet(times)}


def shard_probe(graph) -> Dict[str, float]:
    hidden = np.random.default_rng(0).normal(size=(graph.num_nodes, HIDDEN))
    operator = graph.normalized_adjacency()
    return {
        "graph.spmm_us": 1e6 * quiet_time(lambda: operator @ hidden, 10),
        "graph.build_shards_s": quiet_time(
            lambda: build_shards(graph, 2, 2, method="bfs", seed=0), 3
        ),
    }


def perfmodel_probe(server: InferenceServer, graph) -> Dict[str, float]:
    """Section III-D prediction for the same shards, beside the measured
    ``worker.predict_us_per_req`` (accelerator cycles, not this CPU)."""
    estimates = estimate_shard_request_cycles(
        "GCN",
        server.shards,
        graph.num_classes,
        hidden_features=HIDDEN,
        num_layers=server.model.num_layers,
        block_size=BLOCK_SIZE,
    )
    return {
        f"perfmodel.predicted_us_per_req.shard{index}": 1e6
        * estimate.cycles_per_node
        / estimate.config.frequency_hz
        for index, estimate in enumerate(estimates)
    }


# ---------------------------------------------------------------------------
# attributions
# ---------------------------------------------------------------------------


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _pid_cpu_seconds(pid: int) -> float:
    """utime + stime of a live process from /proc (0 when it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class CpuMeter:
    """Process CPU of the harness plus its live worker processes."""

    def __init__(self, server: InferenceServer) -> None:
        self.pids = [pid for pid in (getattr(w, "pid", None) for w in server.workers) if pid]
        self._own = time.process_time()
        self._children = sum(_pid_cpu_seconds(pid) for pid in self.pids)

    def stop(self) -> tuple:
        """``(total, children)`` CPU seconds since construction."""
        children = sum(_pid_cpu_seconds(pid) for pid in self.pids) - self._children
        return time.process_time() - self._own + children, children


def _queue_wait_ms(recorder: spans.SpanRecorder, batches: Sequence) -> np.ndarray:
    """Per request: start of the ``predict`` span that served it minus its
    enqueue time.  A request completes right after its span ends, so it maps
    to the last span of its worker that ended before its completion."""
    by_worker: Dict[int, List[tuple]] = {}
    for span in recorder.spans:
        if span[spans.NAME] in PREDICT_SPANS:
            by_worker.setdefault(span[spans.ARG], []).append((span[spans.END], span[spans.START]))
    waits = []
    for worker_id, series in by_worker.items():
        ends, starts = (np.asarray(column) for column in zip(*sorted(series)))
        for batch in batches:
            members = batch.good & (batch.worker == worker_id)
            if members.any():
                index = np.searchsorted(ends, batch.completion[members], side="right") - 1
                waits.append(starts[np.maximum(index, 0)] - batch.enqueue[members])
    return 1e3 * np.concatenate(waits)


def serving_layers(
    recorder: spans.SpanRecorder,
    stats,
    wall: float,
    batches: Sequence,
    latencies_ms: np.ndarray,
    cpu_seconds: float,
) -> Dict[str, float]:
    """Split the traced section among worker, cache, engine and batcher."""
    requests = sum(len(batch.good) for batch in batches)
    own = recorder.self_by_name()
    totals = recorder.total_by_name()
    predict = sum(totals.get(name, 0.0) for name in PREDICT_SPANS)
    engine_self = sum(own.get(name, 0.0) for name in ENGINE_SPANS)
    stages = stats.stage_seconds
    per_request = 1e6 / requests
    flushes = stats.size_flushes + stats.delay_flushes + stats.forced_flushes
    return {
        "worker.predict_us_per_req": predict * per_request,
        "worker.plan_build_us_per_req": stages["plan_build"] * per_request,
        "worker.aggregation_us_per_req": stages["aggregation"] * per_request,
        "worker.combination_us_per_req": stages["combination"] * per_request,
        "worker.unattributed_share": (predict - sum(stages.values())) / predict,
        "cache.hit_ratio": stats.cache_hit_rate,
        "cache.halo_hit_ratio": stats.halo_hit_rate,
        "cache.evictions_per_kreq": 1e3 * stats.cache.evictions / requests,
        "cache.gather_us_per_req": stages["cache_gather"] * per_request,
        "cache.scatter_us_per_req": stages["cache_scatter"] * per_request,
        "cache.halo_gather_us_per_req": stages["halo_gather"] * per_request,
        "cache.halo_publish_us_per_req": stages["halo_publish"] * per_request,
        "graph.plan_cache_hit_ratio": stats.plan_hit_rate,
        "engine.self_us_per_req": engine_self * per_request,
        "engine.self_share": engine_self / wall,
        "engine.cpu_s_per_kreq": 1e3 * cpu_seconds / requests,
        "engine.latency_p99_ms": nearest_rank(latencies_ms, 0.99),
        "engine.ledger_residual_share": recorder.ledger_residual_share(wall),
        "batcher.queue_wait_ms_p50": nearest_rank(_queue_wait_ms(recorder, batches), 0.5),
        "batcher.mean_batch_size": stats.mean_batch_size,
        "batcher.size_flush_share": stats.size_flushes / flushes if flushes else 0.0,
    }


def procplane_layers(
    recorder: spans.SpanRecorder, stats, cpu_seconds: float, child_cpu_seconds: float
) -> Dict[str, float]:
    """The pipe round trip per batch, and what of it the child did not spend
    in a serving stage (pickle, pipe, wake-up, child bookkeeping)."""
    rpcs = recorder.named("procplane.predict")
    rtt = sum(span[spans.END] - span[spans.START] for span in rpcs)
    rss = [load.rss_bytes for load in stats.workers if load.rss_bytes]
    return {
        "procplane.rtt_us_per_batch": 1e6 * rtt / len(rpcs),
        "procplane.transport_us_per_batch": 1e6
        * (rtt - sum(stats.stage_seconds.values()))
        / len(rpcs),
        "procplane.child_rss_mb": float(np.mean(rss)) / 2**20 if rss else 0.0,
        "procplane.child_cpu_share": child_cpu_seconds / cpu_seconds,
    }


# ---------------------------------------------------------------------------
# comparisons (ungated: ROADMAP item 2, "which executor earns its place")
# ---------------------------------------------------------------------------


def telemetry_overhead(
    model, graph, config, reference, draw, windows_per_turn: int, turns: int
) -> float:
    """Warm goodput with ``telemetry="metrics"`` over ``telemetry="off"``,
    the two servers taking turns of a few windows so both see the same host."""
    tally = Tally()
    pair = []
    servers = []
    try:
        for mode in ("metrics", "off"):
            server = InferenceServer(model, graph, dataclasses.replace(config, telemetry=mode))
            servers.append(server)
            server.predict(np.arange(graph.num_nodes))
            pair.append(ClosedLoop(server, reference, draw, tally, None, windows_per_turn))
        series = ([], [])
        for _ in range(turns):
            for loop, out in zip(pair, series):
                out.extend(loop.run(windows_per_turn))
    finally:
        for server in servers:
            server.shutdown()
    if tally.failed:
        raise RuntimeError(f"telemetry comparison served wrong answers: {dict(tally.causes)}")
    with_metrics, without = (summarise_slices(s)["goodput_per_s"] for s in series)
    return with_metrics / without


def rate_ladder(server, stream, reference, tally: Tally, rng, seconds: float) -> Dict[str, float]:
    """Open-loop p50 latency at a few fixed rates on the warmed server."""
    out = {}
    for rate in LADDER_RATES:
        offsets = poisson_offsets(rng, rate, seconds)
        run = open_loop(server, stream.draw(len(offsets)), offsets, reference, tally)
        out[f"engine.p50_ms.r{rate}"] = quiet(open_slices(run, offsets)["p50"])
    return out


def executor_comparison(model, graph, reference, tally: Tally, rng) -> Dict[str, float]:
    """2 048 uniform requests with every cache off, per executor; the extra
    time the process plane takes to its first answers is its spawn cost."""
    nodes = rng.integers(0, graph.num_nodes, size=8 * WINDOW)
    windows = np.split(nodes, 8)
    out = {}
    ready = {}
    for executor in EXECUTORS:
        config = serving_config(executor=executor, cache_capacity=0, halo_tier=False)
        gc.collect()
        start = clock()
        server = InferenceServer(model, graph, config)
        try:
            server.predict(nodes[:BATCH])
            ready[executor] = clock() - start
            remaining = iter(windows)
            loop = ClosedLoop(server, reference, lambda count: next(remaining), tally)
            out[f"executor.req_per_s.{executor}"] = summarise_slices(loop.run(8))["goodput_per_s"]
        finally:
            server.shutdown()
    out["procplane.spawn_s"] = ready["process"] - ready["serial"]
    return out
