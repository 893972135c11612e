"""The four workloads.

Every workload returns a :class:`Result`: operations attempted and failed,
the five end-to-end metrics (untraced run) or the per-layer metrics (traced
run), and diagnostics.  A timed section repeats slices of identical work
until its share of ``--seconds`` has passed (``Sizing.timed``), so a run lasts
the same on a slow host as on a fast one; warm-up and set-up repeats are
fixed counts.
"""

from __future__ import annotations

import gc
import os
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.serving import InferenceServer
from repro.serving.procplane import SEGMENT_PREFIX, list_segments

from . import layers, spans
from .common import (
    BATCH,
    WINDOW,
    ZipfStream,
    build_model,
    clock,
    load_graph,
    measure_setup,
    peak_rss_mb,
    reference_predictions,
    serving_config,
)
from .estimator import iqr_share, nearest_rank, quiet, quiet_scaled
from .hostprobe import HostProbe
from .loops import (
    ClosedLoop,
    Tally,
    collect,
    open_loop,
    open_slices,
    poisson_offsets,
    slice_diagnostics,
    summarise_slices,
    timely_share,
)
from .spec import LATENCY_LIMIT_MS, MODELS, RUN_SECONDS

OPEN_RATE = 800.0
OPEN_WARM_REQUESTS = 20_000
#: Share of ``--seconds`` the timed slices of a workload run for.  The rest of
#: a run (imports, the reference forward, correctness checks, warm-up, the
#: set-up repeats) takes 5-14 s; the shares go where the run-to-run spread is
#: widest and keep the four workloads at 31 s a run on average, because the
#: driver's 92 runs must end within 3 420 s.
TIMED_SHARE = {
    "offline_full": 0.95,
    "serve_cold": 0.85,
    "serve_warm_zipf": 0.70,
    "serve_openloop_process": 0.80,
}
#: Cold constructions behind ``setup_s``: serial server, process server, offline.
SETUP_REPEATS_SERIAL, SETUP_REPEATS_PROCESS, SETUP_REPEATS_OFFLINE = 13, 6, 4
#: A 20 ms GCN pass is below the host's noise grain: time 4 and average.
GCN_REPEATS = 4


@dataclass(frozen=True)
class Sizing:
    """How long a run works, from ``--seconds`` / ``--quick`` / ``--trace``."""

    seconds: float = RUN_SECONDS
    quick: bool = False
    trace: bool = False

    def timed(self, workload: str) -> float:
        """Seconds the timed slices of ``workload`` run for."""
        return TIMED_SHARE[workload] * self.seconds

    def count(self, base: int, floor: int = 2) -> int:
        """``base`` units of warm-up at the default run length, scaled."""
        return max(floor, int(round(base * self.seconds / RUN_SECONDS)))

    def repeats(self, full: int) -> int:
        """Cold constructions for ``setup_s``."""
        return 2 if self.quick else full


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    tally: Tally
    metrics: Dict[str, float]
    diagnostics: Dict[str, float]


# ---------------------------------------------------------------------------
# offline_full
# ---------------------------------------------------------------------------


def offline_full(seed: int, sizing: Sizing, recorder: Optional[spans.SpanRecorder]) -> Result:
    """``full_forward`` of the paper's four models on ``rd1``; one slice is
    one sweep over the models, in an order drawn from ``--seed``."""
    rng = np.random.default_rng(seed)
    tally = Tally()

    def build():
        graph = load_graph("rd1")
        models = {name: build_model(name, graph) for name in MODELS}
        logits = {name: model.full_forward(graph).data for name, model in models.items()}
        return graph, models, logits

    if sizing.trace:
        setup_s, (graph, models, logits) = 0.0, build()
    else:
        repeats = sizing.repeats(SETUP_REPEATS_OFFLINE)
        setup_s, (graph, models, logits) = measure_setup(build, repeats, HostProbe("numeric"))

    # Once per model: the rFFT path must equal the dense expansion of the same
    # block-circulant weights.  Every timed pass is then compared with these
    # logits bit for bit.
    for name, model in models.items():
        dense = layers.dense_twin(name, model, graph).full_forward(graph).data
        mismatched = ~np.isclose(logits[name], dense, rtol=0.0, atol=1e-8).all(axis=1)
        tally.attempted += graph.num_nodes
        tally.causes["wrong"] += int(mismatched.sum())

    probe = HostProbe("numeric")

    def sweep() -> Dict[str, float]:
        times = {}
        for index in rng.permutation(len(MODELS)):
            name = MODELS[index]
            model = models[name]
            repeats = GCN_REPEATS if name == "GCN" else 1
            if not sizing.trace:  # a traced sweep is a root span: nothing of the harness inside
                probe.sample(2)
            start = clock()
            for _ in range(repeats):
                out = model.full_forward(graph).data
            times[name] = (clock() - start) / repeats
            tally.attempted += graph.num_nodes
            if not np.array_equal(out, logits[name]):
                tally.causes["wrong"] += graph.num_nodes
        return times

    def sweeps(seconds: float, traced: bool = False) -> List[Dict[str, float]]:
        """At least two sweeps, then further ones until ``seconds`` have passed."""
        out: List[Dict[str, float]] = []
        deadline = clock() + seconds
        while len(out) < 2 or clock() < deadline:
            gc.collect()
            if traced:
                recorder.window += 1
                root = recorder.begin("harness.window")
                out.append(sweep())
                recorder.end(root)
            else:
                out.append(sweep())
        return out

    def summarise(series: List[Dict[str, float]], scale: float) -> Dict[str, float]:
        # The quiet pass time of each model; the latency percentiles are taken
        # over those four (p90 = the slowest model), not sweep by sweep, where
        # the p50 flips between GraphSAGE and GAT with the host.
        passes = [scale * quiet([s[name] for s in series]) for name in MODELS]
        return {
            "goodput_per_s": len(MODELS) * graph.num_nodes / sum(passes),
            "latency_p50_ms": 1e3 * nearest_rank(passes, 0.5),
            "latency_p90_ms": 1e3 * nearest_rank(passes, 0.9),
        }

    def wall(series: List[Dict[str, float]]) -> List[float]:
        return [sum(s.values()) + (GCN_REPEATS - 1) * s["GCN"] for s in series]

    timed = sizing.timed("offline_full")
    if not sizing.trace:
        series = sweeps(timed)
        scale = probe.scale()
        metrics = summarise(series, scale)
        metrics["peak_rss_mb"] = peak_rss_mb()
        metrics["setup_s"] = setup_s
        diagnostics = {
            "slices": len(series),
            "samples": len(series) * len(MODELS),
            "raw.goodput_per_s": summarise(series, 1.0)["goodput_per_s"],
            "host.scale": scale,
            "latency_p99_ms": 1e3 * max(max(s.values()) for s in series),
            "host.slice_iqr_share": iqr_share(wall(series)),
        }
        return Result("offline_full", seed, False, tally, metrics, diagnostics)

    # A sweep is long and a run has few: trace half of the time, not a quarter.
    plain = sweeps(timed / 4)
    spans.install(recorder, models.values())
    try:
        traced = sweeps(timed / 2, traced=True)
    finally:
        recorder.uninstall()
    metrics = layers.zeros()
    for name in MODELS:
        metrics[f"models.full_forward_ms.{name}"] = 1e3 * quiet([s[name] for s in traced])
        metrics[f"models.aggregation_share.{name}"] = layers.aggregation_share(
            models[name], graph
        )
    metrics.update(layers.compression_probe())
    metrics["engine.ledger_residual_share"] = recorder.ledger_residual_share(sum(wall(traced)))
    metrics["telemetry.trace_overhead_ratio"] = (
        summarise(traced[:len(plain)], 1.0)["goodput_per_s"]
        / summarise(plain, 1.0)["goodput_per_s"]
    )
    metrics["host.calib_ms"] = layers.host_calibration()
    metrics["host.slice_iqr_share"] = iqr_share(wall(traced))
    diagnostics = {"slices": len(traced), "spans": len(recorder.spans)}
    return Result("offline_full", seed, True, tally, metrics, diagnostics)


# ---------------------------------------------------------------------------
# serve_cold, serve_warm_zipf: closed loops on the dense graph
# ---------------------------------------------------------------------------


def measure_server_setup(model, graph, config, reference, first, tally, repeats, probe=None) -> float:
    """Build -> first 64 answers -> shutdown, ``repeats`` times (quiet estimate)."""

    def build():
        server = InferenceServer(model, graph, config)
        try:
            answers = server.predict(first)
        finally:
            server.shutdown()
        tally.attempted += len(first)
        tally.causes["wrong"] += int((answers != reference[first]).sum())

    return measure_setup(build, repeats, probe)[0]


def _closed_serving(
    name: str,
    seed: int,
    sizing: Sizing,
    recorder: Optional[spans.SpanRecorder],
    *,
    cold: bool,
    probe_kind: str,
    windows_per_collect: int,
    warmup_slices: int,
) -> Result:
    rng = np.random.default_rng(seed)
    tally = Tally()
    graph = load_graph("rd2")
    model = build_model("GCN", graph)
    reference = reference_predictions(model, graph)
    config = serving_config(executor="serial", cache_capacity=65536)
    parameters = model.parameters()

    def refresh() -> None:
        # A model refresh: values unchanged, every cache/halo/spectrum
        # signature invalid, so the window recomputes everything.
        for parameter in parameters:
            parameter.bump_version()

    if cold:
        def draw(count):
            return rng.integers(0, graph.num_nodes, size=count)
    else:
        draw = ZipfStream(graph.num_nodes, rng).draw

    setup_s = 0.0
    if not sizing.trace:
        first = rng.integers(0, graph.num_nodes, size=BATCH)
        setup_s = measure_server_setup(
            model, graph, config, reference, first, tally,
            sizing.repeats(SETUP_REPEATS_SERIAL), HostProbe(probe_kind),
        )

    # The traced run reports raw per-layer figures: no probe between its windows.
    probe = None if sizing.trace else HostProbe(probe_kind)
    timed = sizing.timed(name)
    server = InferenceServer(model, graph, config)
    try:
        loop = ClosedLoop(
            server, reference, draw, tally, refresh if cold else None, windows_per_collect, probe
        )
        if not cold:
            # Every node predicted once: from here on everything is a hit.
            answers = server.predict(np.arange(graph.num_nodes))
            tally.attempted += graph.num_nodes
            tally.causes["wrong"] += int((answers != reference).sum())
        loop.run(sizing.count(warmup_slices))
        server.reset_stats()

        if not sizing.trace:
            probe.samples.clear()  # warm-up readings: the allocator was still growing
            series = loop.run(2, seconds=timed)
            scale = probe.scale()
            metrics = summarise_slices(series, scale)
            metrics["peak_rss_mb"] = peak_rss_mb()
            metrics["setup_s"] = setup_s
            diagnostics = slice_diagnostics(series)
            diagnostics["raw.goodput_per_s"] = summarise_slices(series)["goodput_per_s"]
            diagnostics["host.scale"] = scale
            return Result(name, seed, False, tally, metrics, diagnostics)

        plain = loop.run(2, seconds=timed / 8)
        server.reset_stats()
        spans.install(recorder, [model])
        cpu = layers.CpuMeter(server)
        try:
            traced = loop.run(2, recorder, seconds=timed / 4)
        finally:
            recorder.uninstall()
        cpu_seconds, _ = cpu.stop()
        metrics = layers.zeros()
        metrics.update(
            layers.serving_layers(
                recorder,
                server.stats(),
                wall=sum(s.wall for s in traced),
                batches=[s.batch for s in traced],
                latencies_ms=np.concatenate([s.latencies_ms for s in traced]),
                cpu_seconds=cpu_seconds,
            )
        )
        # Equal slice counts on both sides, so both use the same quantile.
        metrics["telemetry.trace_overhead_ratio"] = (
            summarise_slices(traced[:len(plain)])["goodput_per_s"]
            / summarise_slices(plain)["goodput_per_s"]
        )
        metrics["host.slice_iqr_share"] = iqr_share([s.wall for s in traced])
        metrics["host.calib_ms"] = layers.host_calibration()
        if cold:
            metrics.update(layers.graph_probe(graph, "graph.restriction_build_us"))
            metrics.update(layers.shard_probe(graph))
            metrics.update(layers.perfmodel_probe(server, graph))
        else:
            metrics["telemetry.overhead_ratio"] = layers.telemetry_overhead(
                model, graph, config, reference, draw, windows_per_collect, sizing.count(64, 4)
            )
        diagnostics = {"slices": len(traced), "spans": len(recorder.spans)}
        return Result(name, seed, True, tally, metrics, diagnostics)
    finally:
        server.shutdown()


def serve_cold(seed: int, sizing: Sizing, recorder) -> Result:
    """Uniform nodes, a model refresh before every window: the write side."""
    return _closed_serving(
        "serve_cold", seed, sizing, recorder,
        cold=True, probe_kind="numeric", windows_per_collect=2, warmup_slices=8,
    )


def serve_warm_zipf(seed: int, sizing: Sizing, recorder) -> Result:
    """Zipf over a fully warmed cache: the read side, pure engine overhead."""
    return _closed_serving(
        "serve_warm_zipf", seed, sizing, recorder,
        cold=False, probe_kind="interpreter", windows_per_collect=16, warmup_slices=64,
    )


# ---------------------------------------------------------------------------
# serve_openloop_process
# ---------------------------------------------------------------------------


def serve_openloop_process(seed: int, sizing: Sizing, recorder) -> Result:
    """Poisson arrivals against two worker processes on the sparse graph."""
    rng = np.random.default_rng(seed)
    tally = Tally()
    graph = load_graph("pb")
    model = build_model("GCN", graph)
    reference = reference_predictions(model, graph)
    # The cache is below the working set (~40 % hits, steady eviction), so
    # gather, put and recompute run side by side; the driver polls itself.
    config = serving_config(executor="process", cache_capacity=4096, flush_on_submit=False)
    stream = ZipfStream(graph.num_nodes, rng)

    setup_s = 0.0
    if not sizing.trace:
        first = rng.integers(0, graph.num_nodes, size=BATCH)
        setup_s = measure_server_setup(
            model, graph, config, reference, first, tally, sizing.repeats(SETUP_REPEATS_PROCESS)
        )

    open_seconds = sizing.timed("serve_openloop_process")

    def timed_loop(seconds: float, traced: bool = False):
        offsets = poisson_offsets(rng, OPEN_RATE, seconds)
        run = open_loop(
            server, stream.draw(len(offsets)), offsets, reference, tally,
            recorder if traced else None,
        )
        latency_ms = 1e3 * (run.batch.completion - run.due)[run.batch.good]
        return run, open_slices(run, offsets), latency_ms

    server = InferenceServer(model, graph, config)
    try:
        pids = [worker.pid for worker in server.workers]
        # Closed-loop warm-up from the same Zipf: the caches reach their
        # steady eviction state before anything is timed.
        warm = stream.draw(sizing.count(OPEN_WARM_REQUESTS, WINDOW))
        for begin in range(0, len(warm), WINDOW):
            chunk = warm[begin:begin + WINDOW]
            handles = server.submit_many(chunk.tolist())
            server.drain()
            collect(handles, chunk, reference, tally)
        server.reset_stats()
        gc.collect()

        if not sizing.trace:
            run, slices, latency_ms = timed_loop(open_seconds)
            metrics = {
                # The schedule fixes the rate, so goodput is the offered rate
                # times the share answered correctly within the limit: a count
                # over the whole run (a quiet estimate of it would read 800
                # whatever the server did), never above the offered load.
                "goodput_per_s": OPEN_RATE * timely_share(run),
                "latency_p50_ms": quiet(slices["p50"]),
                # The tail as its typical multiple of the slice's p50.
                "latency_p90_ms": quiet_scaled(slices["p90"], slices["p50"]),
            }
            diagnostics = {
                "slices": len(slices["p50"]),
                "samples": int(len(latency_ms)),
                "late": int((latency_ms > LATENCY_LIMIT_MS).sum()),
                "latency_p99_ms": nearest_rank(latency_ms, 0.99),
                "host.slice_iqr_share": iqr_share(slices["p50"]),
                "generator_late_ms_p99": nearest_rank(
                    1e3 * (run.batch.enqueue - run.due), 0.99
                ),
            }
        else:
            _, plain_slices, _ = timed_loop(open_seconds / 8)
            server.reset_stats()
            spans.install(recorder, [model], open_loop=True)
            cpu = layers.CpuMeter(server)
            try:
                run, slices, latency_ms = timed_loop(open_seconds / 4, traced=True)
            finally:
                recorder.uninstall()
            cpu_seconds, child_cpu_seconds = cpu.stop()
            stats = server.stats()
            metrics = layers.zeros()
            metrics.update(
                layers.serving_layers(
                    recorder,
                    stats,
                    wall=run.duration,
                    batches=[run.batch],
                    latencies_ms=latency_ms,
                    cpu_seconds=cpu_seconds,
                )
            )
            metrics["engine.generator_late_ms_p99"] = nearest_rank(
                1e3 * (run.batch.enqueue - run.due), 0.99
            )
            metrics.update(layers.procplane_layers(recorder, stats, cpu_seconds, child_cpu_seconds))
            # Latency, not goodput: the schedule fixes the open loop's rate.
            metrics["telemetry.trace_overhead_ratio"] = quiet(plain_slices["p50"]) / quiet(
                slices["p50"][:len(plain_slices["p50"])]
            )
            metrics["host.slice_iqr_share"] = iqr_share(slices["p50"])
            metrics["host.calib_ms"] = layers.host_calibration()
            metrics.update(layers.graph_probe(graph, "graph.restriction_build_us.pb"))
            metrics.update(
                layers.rate_ladder(server, stream, reference, tally, rng, sizing.seconds / 4)
            )
            diagnostics = {"slices": len(slices["p50"]), "spans": len(recorder.spans)}
    finally:
        server.shutdown()

    if sizing.trace:
        metrics.update(layers.executor_comparison(model, graph, reference, tally, rng))

    # Nothing of the run may outlive it: no worker process, no /dev/shm segment
    # (segments are named bgnn-<creator pid>-..., the workers' cache slabs too).
    leaked = list_segments(prefix=f"{SEGMENT_PREFIX}-{os.getpid()}-")
    alive = [pid for pid in pids if layers.pid_alive(pid)]
    if leaked or alive:
        raise RuntimeError(
            f"serve_openloop_process left segments {leaked} and processes {alive} behind"
        )
    if not sizing.trace:
        metrics["peak_rss_mb"] = peak_rss_mb(include_children=True)
        metrics["setup_s"] = setup_s
    return Result("serve_openloop_process", seed, sizing.trace, tally, metrics, diagnostics)


WORKLOADS = {
    "offline_full": offline_full,
    "serve_cold": serve_cold,
    "serve_warm_zipf": serve_warm_zipf,
    "serve_openloop_process": serve_openloop_process,
}
