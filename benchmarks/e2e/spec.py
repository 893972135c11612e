"""Names, units and bounds of everything the benchmark reports.

``BENCHMARK.json`` at the repo root is this module written out
(``benchmark_json()``); the smoke test checks that the two agree.
"""

from __future__ import annotations

#: How long one untraced run measures: every workload's timed slices run for
#: a share of it (``workloads.TIMED_SHARE``), against a deadline.
RUN_SECONDS = 28

#: Open-loop latency limit: a request answered later than this after its due
#: time does not count towards goodput.
LATENCY_LIMIT_MS = 25.0

WORKLOADS = {
    "offline_full": (
        "the paper's workload: full-graph inference of GCN/GraphSAGE/GAT/GGCN, "
        "all kernels and SpMM, no serving code"
    ),
    "serve_cold": (
        "every 256-request window follows a model refresh, so plan build, restricted "
        "SpMM, rFFT combination and cache/halo writes all run"
    ),
    "serve_warm_zipf": (
        "every request is a cache hit, so engine/batcher/scheduler/telemetry overhead "
        "is the whole cost and kernels do nothing"
    ),
    "serve_openloop_process": (
        "Poisson arrivals at 800 req/s against worker processes on a sparse graph with "
        "a cache below the working set: transport, queue wait and eviction matter"
    ),
}

# (name, unit, better, bound)
END_TO_END = (
    ("goodput_per_s", "1/s", "higher", 0.20),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
)

MODELS = ("GCN", "GraphSAGE", "GAT", "GGCN")
BLOCK_SIZES = (1, 4, 8, 16)
EXECUTORS = ("serial", "concurrent", "process")
LADDER_RATES = (400, 800, 1600)

# (name, unit, better).  A layer a workload does not exercise reads 0 there.
PER_LAYER = (
    *((f"compression.matmul_us.n{n}", "us", "lower") for n in BLOCK_SIZES),
    ("compression.spectral_weights_us.n8", "us", "lower"),
    ("compression.ops_ratio.n8", "ratio", "lower"),
    *((f"models.full_forward_ms.{m}", "ms", "lower") for m in MODELS),
    *((f"models.aggregation_share.{m}", "ratio", "lower") for m in MODELS),
    ("graph.restriction_build_us", "us", "lower"),
    ("graph.restriction_build_us.pb", "us", "lower"),
    ("graph.spmm_us", "us", "lower"),
    ("graph.plan_cache_hit_ratio", "ratio", "higher"),
    ("graph.build_shards_s", "s", "lower"),
    ("worker.predict_us_per_req", "us", "lower"),
    ("worker.plan_build_us_per_req", "us", "lower"),
    ("worker.aggregation_us_per_req", "us", "lower"),
    ("worker.combination_us_per_req", "us", "lower"),
    ("worker.unattributed_share", "ratio", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.halo_hit_ratio", "ratio", "higher"),
    ("cache.evictions_per_kreq", "count", "lower"),
    ("cache.gather_us_per_req", "us", "lower"),
    ("cache.scatter_us_per_req", "us", "lower"),
    ("cache.halo_gather_us_per_req", "us", "lower"),
    ("cache.halo_publish_us_per_req", "us", "lower"),
    ("engine.self_us_per_req", "us", "lower"),
    ("engine.self_share", "ratio", "lower"),
    ("engine.cpu_s_per_kreq", "s", "lower"),
    ("engine.latency_p99_ms", "ms", "lower"),
    ("engine.generator_late_ms_p99", "ms", "lower"),
    ("engine.ledger_residual_share", "ratio", "lower"),
    ("batcher.queue_wait_ms_p50", "ms", "lower"),
    ("batcher.mean_batch_size", "count", "higher"),
    ("batcher.size_flush_share", "ratio", "higher"),
    ("procplane.rtt_us_per_batch", "us", "lower"),
    ("procplane.transport_us_per_batch", "us", "lower"),
    ("procplane.spawn_s", "s", "lower"),
    ("procplane.child_rss_mb", "MB", "lower"),
    ("procplane.child_cpu_share", "ratio", "lower"),
    *((f"executor.req_per_s.{e}", "1/s", "higher") for e in EXECUTORS),
    *((f"engine.p50_ms.r{r}", "ms", "lower") for r in LADDER_RATES),
    ("telemetry.overhead_ratio", "ratio", "higher"),
    ("telemetry.trace_overhead_ratio", "ratio", "higher"),
    ("perfmodel.predicted_us_per_req.shard0", "us", "lower"),
    ("perfmodel.predicted_us_per_req.shard1", "us", "lower"),
    ("host.calib_ms", "ms", "lower"),
    ("host.slice_iqr_share", "ratio", "lower"),
)

E2E_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def benchmark_json() -> dict:
    """The contract file at the repo root, derived from the tables above."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
        ],
    }
