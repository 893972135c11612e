"""Command-line interface for regenerating the paper's tables and figures.

Usage (after ``pip install -e .``)::

    python -m repro.cli table2
    python -m repro.cli table3 --scale 0.004 --epochs 6
    python -m repro.cli table5
    python -m repro.cli table6
    python -m repro.cli figure6
    python -m repro.cli figure7
    python -m repro.cli ablation-rfft
    python -m repro.cli ablation-agg-only
    python -m repro.cli eval-bench --model GCN --block-size 8
    python -m repro.cli profile --model GS-Pool
    python -m repro.cli search --model GS-Pool --dataset reddit
    python -m repro.cli partition --dataset reddit --parts 4
    python -m repro.cli serve-bench --model GCN --shards 2 --requests 512

Each sub-command prints the regenerated table next to the paper's reference
numbers (where applicable).  The same code paths back the ``benchmarks/``
suite; the CLI exists so individual experiments can be re-run and tweaked
without going through pytest.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Regenerate the BlockGNN paper's tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("table2", help="GNN profiling on Reddit (Table II)")

    table3 = subparsers.add_parser("table3", help="compression ratio vs. accuracy (Table III)")
    table3.add_argument("--scale", type=float, default=0.004, help="fraction of the Reddit graph to synthesise")
    table3.add_argument("--epochs", type=int, default=6)
    table3.add_argument("--hidden", type=int, default=64)
    table3.add_argument("--block-sizes", type=int, nargs="+", default=[1, 8, 16])
    table3.add_argument("--models", nargs="+", default=["GCN", "GS-Pool", "G-GCN", "GAT"])
    table3.add_argument(
        "--eval-mode",
        choices=["sampled", "full"],
        default="sampled",
        help="validation/test inference: per-batch neighbour sampling or full-graph layer-wise",
    )

    subparsers.add_parser("table5", help="searched optimal hardware parameters (Table V)")
    subparsers.add_parser("table6", help="FPGA resource utilisation (Table VI)")
    subparsers.add_parser("figure6", help="performance comparison (Figure 6)")
    subparsers.add_parser("figure7", help="energy-efficiency comparison (Figure 7)")
    subparsers.add_parser("ablation-rfft", help="Section V ablation: real-valued FFT")

    agg_only = subparsers.add_parser(
        "ablation-agg-only", help="Section V ablation: compress only the aggregators"
    )
    agg_only.add_argument("--scale", type=float, default=0.004)
    agg_only.add_argument("--epochs", type=int, default=5)
    agg_only.add_argument("--block-size", type=int, default=8)
    agg_only.add_argument("--eval-mode", choices=["sampled", "full"], default="sampled")

    eval_bench = subparsers.add_parser(
        "eval-bench",
        help="compare sampled vs. full-graph layer-wise inference (accuracy + wall-clock)",
    )
    eval_bench.add_argument("--model", default="GCN", help="GCN | GS-Pool | G-GCN | GAT")
    eval_bench.add_argument("--dataset", default="reddit")
    eval_bench.add_argument("--scale", type=float, default=0.004)
    eval_bench.add_argument("--epochs", type=int, default=3)
    eval_bench.add_argument("--hidden", type=int, default=64)
    eval_bench.add_argument("--block-size", type=int, default=8)
    eval_bench.add_argument("--fanouts", type=int, nargs="+", default=[25, 10])

    profile = subparsers.add_parser("profile", help="profile a single GNN model (Table II row)")
    profile.add_argument("--model", default="GS-Pool", help="GCN | GS-Pool | G-GCN | GAT")
    profile.add_argument("--sample-size", type=int, default=25)
    profile.add_argument("--feature-dim", type=int, default=512)

    search = subparsers.add_parser("search", help="design-space exploration for one task")
    search.add_argument("--model", default="GS-Pool")
    search.add_argument("--dataset", default="reddit")
    search.add_argument("--hidden", type=int, default=512)
    search.add_argument("--block-size", type=int, default=128)

    partition = subparsers.add_parser(
        "partition",
        help="partition a graph and report per-part node/edge/cut statistics",
    )
    partition.add_argument("--dataset", default="reddit")
    partition.add_argument("--scale", type=float, default=0.004)
    partition.add_argument("--parts", type=int, default=2)
    partition.add_argument("--method", choices=["bfs", "hash"], default="bfs")
    partition.add_argument("--seed", type=int, default=0)
    partition.add_argument(
        "--halo-hops",
        type=int,
        default=2,
        help="also report the halo each serving shard would hold at this depth",
    )

    serve = subparsers.add_parser(
        "serve-bench",
        help="online serving benchmark: micro-batching + sharded workers + embedding cache",
    )
    serve.add_argument("--model", default="GCN", help="GCN | GS-Pool | G-GCN | GAT")
    serve.add_argument("--dataset", default="reddit")
    serve.add_argument("--scale", type=float, default=0.002)
    serve.add_argument("--hidden", type=int, default=64)
    serve.add_argument("--block-size", type=int, default=1)
    serve.add_argument("--epochs", type=int, default=2)
    serve.add_argument("--shards", type=int, default=2)
    serve.add_argument("--replicas", type=int, default=1)
    serve.add_argument("--batch-size", type=int, default=32, help="micro-batch flush size")
    serve.add_argument("--max-delay-ms", type=float, default=2.0)
    serve.add_argument("--cache", type=int, default=4096, help="embedding-cache entries per worker")
    serve.add_argument(
        "--halo-tier",
        choices=["on", "off"],
        default="on",
        help="share computed boundary (halo) embeddings between shards so cold "
        "flushes stop recomputing each other's cut nodes",
    )
    serve.add_argument("--requests", type=int, default=512)
    serve.add_argument(
        "--fanouts", type=int, nargs="+", default=[10, 5], help="per-layer training fanouts"
    )
    serve.add_argument(
        "--executor",
        choices=["serial", "concurrent", "process"],
        default="serial",
        help="flush execution: inline (deterministic), thread-pool (parallel "
        "shards), or crash-isolated worker processes over shared-memory slabs",
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        help="bound each shard queue (default: unbounded, no admission control)",
    )
    serve.add_argument(
        "--overload-policy",
        choices=["reject", "shed_oldest", "block"],
        default="reject",
        help="what to do when a bounded queue is full",
    )
    serve.add_argument(
        "--ingress",
        choices=["sync", "thread"],
        default="sync",
        help="request intake: sync (submit flushes due batches inline) or "
        "thread (background front-door pump drives flush rounds)",
    )
    serve.add_argument(
        "--class-mix",
        default=None,
        metavar="NAME=FRAC,...",
        help="weighted request-class mix for the measured stream, e.g. "
        "premium=0.25,standard=0.25,backfill=0.5 (default: all standard); "
        "heavier classes batch first and shed last under overload",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline; queued requests past it expire unserved",
    )
    serve.add_argument(
        "--fault-fail-rate",
        type=float,
        default=0.0,
        help="per-dispatch probability that a replica raises (fault injection)",
    )
    serve.add_argument(
        "--fault-hang-rate",
        type=float,
        default=0.0,
        help="per-dispatch probability that a replica hangs past --fault-hang-ms",
    )
    serve.add_argument(
        "--fault-die-rate",
        type=float,
        default=0.0,
        help="per-dispatch probability that a replica dies permanently "
        "(stays dead until the replica is rebuilt)",
    )
    serve.add_argument(
        "--fault-kill-rate",
        type=float,
        default=0.0,
        help="per-dispatch probability that the replica's worker *process* is "
        "SIGKILLed (--executor process; in-process replicas degrade to die)",
    )
    serve.add_argument("--fault-hang-ms", type=float, default=50.0)
    serve.add_argument(
        "--fault-workers",
        type=int,
        nargs="+",
        default=None,
        help="restrict injected faults to these worker ids (default: all replicas)",
    )
    serve.add_argument("--fault-seed", type=int, default=0, help="seed of the fault plan RNG")
    serve.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="failover budget per batch after the dispatched replica fails",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--telemetry",
        choices=["off", "metrics", "trace"],
        default="metrics",
        help="observability: off (no accounting), metrics (registry), trace "
        "(registry + per-request spans)",
    )
    serve.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the measured run's Chrome trace-event JSON here "
        "(open in Perfetto / chrome://tracing; implies --telemetry trace)",
    )
    serve.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the measured run's metrics here (.prom/.txt: Prometheus "
        "text exposition, anything else: JSON snapshot)",
    )
    serve.add_argument(
        "--trace-capacity",
        type=int,
        default=4096,
        help="request spans / attempt records kept in the tracer rings",
    )

    return parser


def _run_table2() -> str:
    from .experiments import render_table2

    return render_table2()


def _run_table3(args: argparse.Namespace) -> str:
    from .experiments import render_table3, run_table3

    result = run_table3(
        block_sizes=tuple(args.block_sizes),
        models=tuple(args.models),
        dataset="reddit",
        dataset_scale=args.scale,
        num_features=args.hidden,
        hidden_features=args.hidden,
        epochs=args.epochs,
        eval_mode=args.eval_mode,
    )
    return render_table3(result)


def _run_table5() -> str:
    from .experiments import render_table5, run_table5

    return render_table5(run_table5())


def _run_table6() -> str:
    from .experiments import render_table6, run_table6

    return render_table6(run_table6())


def _run_figure6() -> str:
    from .experiments import render_figure6, run_figure6

    result = run_figure6()
    summary = (
        f"\nmean BlockGNN-opt vs CPU: {result.mean_speedup_vs_cpu:.2f}x (paper 2.3x)   "
        f"mean vs HyGCN: {result.mean_speedup_vs_hygcn:.2f}x (paper 4.2x)"
    )
    return render_figure6(result) + summary


def _run_figure7() -> str:
    from .experiments import render_figure7, run_figure7

    result = run_figure7()
    summary = (
        f"\nenergy reduction: min {result.min_energy_reduction:.1f}x, "
        f"mean {result.mean_energy_reduction:.1f}x, max {result.max_energy_reduction:.1f}x "
        f"(paper 33.9x / 68.9x / 111.9x)"
    )
    return render_figure7(result) + summary


def _run_ablation_rfft() -> str:
    from .experiments import run_rfft_ablation
    from .experiments.tables import format_table

    result = run_rfft_ablation()
    return format_table(
        ["quantity", "complex FFT", "RFFT"],
        [
            ["FLOPs per mat-vec", f"{result.complex_flops:.3e}", f"{result.rfft_flops:.3e}"],
            ["estimated cycles", f"{result.complex_cycles:.3e}", f"{result.rfft_cycles:.3e}"],
            ["max output difference", "-", f"{result.max_output_difference:.2e}"],
        ],
    )


def _run_ablation_agg_only(args: argparse.Namespace) -> str:
    from .experiments import render_aggregator_only, run_aggregator_only_ablation

    result = run_aggregator_only_ablation(
        block_size=args.block_size,
        dataset_scale=args.scale,
        epochs=args.epochs,
        eval_mode=args.eval_mode,
    )
    return render_aggregator_only(result)


def _run_eval_bench(args: argparse.Namespace) -> str:
    from .compression import CompressionConfig
    from .graph import load_dataset
    from .models import Trainer, TrainingConfig, create_model
    from .models.trainer import compare_inference_modes

    graph = load_dataset(args.dataset, scale=args.scale, seed=0, num_features=args.hidden)
    model = create_model(
        args.model,
        in_features=graph.num_features,
        hidden_features=args.hidden,
        num_classes=graph.num_classes,
        compression=CompressionConfig(block_size=args.block_size),
        seed=0,
    )
    fanouts = tuple(args.fanouts)
    trainer = Trainer(
        model, graph, TrainingConfig(epochs=args.epochs, fanouts=fanouts, seed=0)
    )
    trainer.fit()
    comparison = compare_inference_modes(model, graph, fanouts, seed=0)
    return (
        f"{args.model} (n={args.block_size}) on {graph.summary()}\n"
        f"  sampled inference (fanouts {fanouts}): acc {comparison.sampled_accuracy:.3f} "
        f"in {comparison.sampled_seconds * 1e3:.1f} ms\n"
        f"  full-graph layer-wise inference     : acc {comparison.full_accuracy:.3f} "
        f"in {comparison.full_seconds * 1e3:.1f} ms\n"
        f"  speedup {comparison.speedup:.1f}x, accuracy difference {comparison.accuracy_difference:.4f}"
    )


def _run_profile(args: argparse.Namespace) -> str:
    from .profiling import profile_model

    profile = profile_model(args.model, sample_size=args.sample_size, feature_dim=args.feature_dim)
    return (
        f"{profile.model}: aggregation {profile.aggregation.flops:.3e} FLOPs "
        f"(AI {profile.aggregation.arithmetic_intensity:.1f}), "
        f"combination {profile.combination.flops:.3e} FLOPs "
        f"(AI {profile.combination.arithmetic_intensity:.1f})"
    )


def _run_search(args: argparse.Namespace) -> str:
    from .perfmodel import estimate_resources, search_optimal_config
    from .workloads import build_workload

    workload = build_workload(args.model, args.dataset, hidden_features=args.hidden)
    point = search_optimal_config(workload, block_size=args.block_size)
    params = ", ".join(f"{key}={value}" for key, value in point.config.describe().items())
    usage = estimate_resources(point.config).utilization()
    utilisation = ", ".join(f"{key} {value * 100:.1f}%" for key, value in usage.items())
    return (
        f"{workload.model} on {workload.dataset}: optimal {params}\n"
        f"  {point.total_cycles / 1e6:.1f}M cycles = {point.latency_seconds * 1e3:.1f} ms @ 100 MHz\n"
        f"  utilisation: {utilisation}"
    )


def _run_partition(args: argparse.Namespace) -> str:
    import numpy as np

    from .experiments.tables import format_table
    from .graph import load_dataset
    from .serving import build_shards

    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    # build_shards runs the partitioner internally; derive the per-part stats
    # from the shards' core node sets instead of partitioning twice.
    shards = build_shards(graph, args.parts, args.halo_hops, method=args.method, seed=args.seed)
    parts = [shard.core_nodes for shard in shards]
    assignment = np.empty(graph.num_nodes, dtype=np.int64)
    for part_id, nodes in enumerate(parts):
        assignment[nodes] = part_id
    src = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
    same = assignment[src] == assignment[graph.indices]

    rows = []
    for part_id, nodes in enumerate(parts):
        in_part = assignment[src] == part_id
        internal = int((in_part & same).sum()) // 2
        cut = int((in_part & ~same).sum())
        rows.append(
            [
                str(part_id),
                str(len(nodes)),
                str(internal),
                str(cut),
                str(shards[part_id].num_halo),
            ]
        )
    total_cut = int((~same).sum()) // 2
    table = format_table(
        ["part", "nodes", "internal edges", "cut edges", f"halo ({args.halo_hops}-hop)"], rows
    )
    return (
        f"{graph.summary()}\n"
        f"method={args.method} parts={args.parts} seed={args.seed}\n"
        f"{table}\n"
        f"total cut edges: {total_cut} "
        f"({100.0 * total_cut / max(graph.num_edges // 2, 1):.1f}% of undirected edges)"
    )


def _run_serve_bench(args: argparse.Namespace) -> str:
    import time

    import numpy as np

    from .compression import CompressionConfig
    from .graph import load_dataset
    from .models import Trainer, TrainingConfig, create_model
    from .serving import (
        FaultPlan,
        FaultSpec,
        InferenceServer,
        ServingConfig,
        estimate_shard_request_cycles,
    )

    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed, num_features=args.hidden)
    model = create_model(
        args.model,
        in_features=graph.num_features,
        hidden_features=args.hidden,
        num_classes=graph.num_classes,
        compression=CompressionConfig(block_size=args.block_size),
        seed=args.seed,
    )
    fanouts = tuple(args.fanouts)
    Trainer(model, graph, TrainingConfig(epochs=args.epochs, fanouts=fanouts, seed=args.seed)).fit()

    rng = np.random.default_rng(args.seed)
    nodes = rng.choice(graph.num_nodes, size=args.requests, replace=True)

    # Fixed per-request class assignment (same across every server built
    # below, so the streams stay comparable).
    classes = None
    if args.class_mix is not None:
        mix = {}
        for part in args.class_mix.split(","):
            name, _, fraction = part.partition("=")
            mix[name.strip()] = float(fraction)
        total = sum(mix.values())
        names = list(mix)
        classes = rng.choice(names, size=args.requests, p=[mix[n] / total for n in names])

    def build_fault_plan():
        if (
            args.fault_fail_rate <= 0
            and args.fault_hang_rate <= 0
            and args.fault_die_rate <= 0
            and args.fault_kill_rate <= 0
        ):
            return None
        spec = FaultSpec(
            workers=None if args.fault_workers is None else tuple(args.fault_workers),
            fail_rate=args.fault_fail_rate,
            hang_rate=args.fault_hang_rate,
            die_rate=args.fault_die_rate,
            kill_rate=args.fault_kill_rate,
            hang_seconds=args.fault_hang_ms / 1e3,
        )
        return FaultPlan(spec, seed=args.fault_seed)

    # --trace-out needs the tracer, whatever --telemetry says.
    telemetry_mode = args.telemetry
    if args.trace_out is not None and telemetry_mode != "trace":
        telemetry_mode = "trace"

    def build_server(
        batch_size: int,
        cache: int,
        executor: str,
        faulty: bool = False,
        telemetry: str = "metrics",
    ) -> InferenceServer:
        return InferenceServer(
            model,
            graph,
            ServingConfig(
                num_shards=args.shards,
                max_batch_size=batch_size,
                max_delay=args.max_delay_ms / 1e3,
                cache_capacity=cache,
                halo_tier=args.halo_tier == "on",
                num_replicas=args.replicas,
                executor=executor,
                max_queue_depth=args.max_queue_depth,
                overload_policy=args.overload_policy,
                default_timeout=None if args.deadline_ms is None else args.deadline_ms / 1e3,
                fault_plan=build_fault_plan() if faulty else None,
                max_retries=args.max_retries,
                ingress=args.ingress,
                telemetry=telemetry,
                trace_capacity=args.trace_capacity,
                seed=args.seed,
            ),
        )

    def timed_stream(server: InferenceServer) -> float:
        # submit() returns RequestHandle futures; .completed/.result() read
        # the terminal state once drain() has settled the stream.
        start = time.perf_counter()
        if classes is None:
            handles = server.submit_many(nodes)
        else:
            handles = [
                server.submit(node, request_class=name)
                for node, name in zip(nodes, classes)
            ]
        server.drain()
        seconds = time.perf_counter() - start
        incomplete = sum(1 for handle in handles if not handle.completed)
        if incomplete:
            print(
                f"note: {incomplete}/{len(handles)} requests rejected/shed/expired/failed "
                f"under admission control or faults"
            )
        return seconds

    # Naive baseline: one request per batch, no cache — what "no serving
    # engine" looks like.  Then the engine with micro-batching + cache.
    baseline = build_server(1, 0, args.executor)
    baseline_seconds = timed_stream(baseline)
    baseline.shutdown()

    # Only the main measured server takes the fault plan (if any): the naive
    # baseline and the executor comparison stay fault-free so the
    # printed ratios keep meaning "engine vs no engine", not "faults vs none".
    server = build_server(
        args.batch_size, args.cache, args.executor, faulty=True, telemetry=telemetry_mode
    )
    batched_seconds = timed_stream(server)
    cold = server.stats()

    # reset_stats opens a fresh telemetry window, so the exported metrics and
    # trace below describe the warm pass only.
    server.reset_stats()
    warm_seconds = timed_stream(server)
    warm = server.stats()

    # Per-shard measured stage cost of the warm pass (before shutdown), for
    # the predicted-vs-measured table.
    measured_per_shard = {}
    for worker in server.workers:
        seconds, served = measured_per_shard.get(worker.shard.part_id, (0.0, 0))
        measured_per_shard[worker.shard.part_id] = (
            seconds + sum(worker.timings.totals.values()),
            served + worker.nodes_served,
        )

    export_lines = []
    if args.metrics_out is not None:
        server.telemetry.write_metrics(args.metrics_out)
        export_lines.append(f"  metrics (warm pass) -> {args.metrics_out}")
    if args.trace_out is not None:
        server.telemetry.write_trace(args.trace_out)
        tracer = server.tracer
        export_lines.append(
            f"  chrome trace (warm pass) -> {args.trace_out} "
            f"({len(tracer.finished())} request spans, "
            f"{len(tracer.attempts())} attempts, "
            f"{tracer.dropped_traces} dropped)"
        )
    server.shutdown()

    # Serial vs thread-pool vs worker-process executors: replay the cold
    # stream under each (no cache, so the comparison is pure flush
    # execution).
    executor_lines = []
    for executor in ("serial", "concurrent", "process"):
        comparison = build_server(args.batch_size, 0, executor)
        seconds = timed_stream(comparison)
        peak = comparison.stats().peak_concurrency
        comparison.shutdown()
        executor_lines.append(
            f"  {executor:10s}: {seconds * 1e3:8.1f} ms "
            f"({args.requests / seconds:7.0f} req/s, peak concurrency {peak})"
        )

    estimates = estimate_shard_request_cycles(
        args.model,
        server.shards,
        num_classes=graph.num_classes,
        hidden_features=args.hidden,
        num_layers=model.num_layers,
        sample_sizes=fanouts,
    )
    # Predicted (perfmodel cycles on the CirCore accelerator) vs measured
    # (warm-pass stage seconds on this host) per request, per shard.  The
    # two columns run on different hardware, so the interesting signal is
    # how the *ratio across shards* tracks: a shard the model prices high
    # should also measure high.
    cycle_lines = []
    for shard, estimate in zip(server.shards, estimates):
        predicted_us = estimate.cycles_per_node / estimate.config.frequency_hz * 1e6
        seconds, served = measured_per_shard.get(shard.part_id, (0.0, 0))
        if served > 0:
            measured = f"{seconds / served * 1e6:9.1f} us/request ({served} nodes)"
        else:
            measured = "      n/a (no warm traffic)"
        cycle_lines.append(
            f"  shard {shard.part_id}: predicted {estimate.cycles_per_node:9.0f} cycles/request "
            f"({predicted_us:7.1f} us @ 100 MHz)   measured {measured}"
        )
    cycle_lines = "\n".join(cycle_lines)
    executor_comparison = "\n".join(executor_lines)
    return (
        f"{server.describe()}\n"
        f"--- cold pass ({args.requests} requests) ---\n{cold.render()}\n"
        f"--- warm pass (same requests) ---\n{warm.render()}\n"
        f"--- wall-clock ---\n"
        f"  request-at-a-time (no cache): {baseline_seconds * 1e3:.1f} ms "
        f"({args.requests / baseline_seconds:.0f} req/s)\n"
        f"  micro-batched cold          : {batched_seconds * 1e3:.1f} ms "
        f"({args.requests / batched_seconds:.0f} req/s, "
        f"{baseline_seconds / batched_seconds:.1f}x)\n"
        f"  micro-batched warm          : {warm_seconds * 1e3:.1f} ms "
        f"({args.requests / warm_seconds:.0f} req/s, "
        f"{baseline_seconds / warm_seconds:.1f}x)\n"
        f"--- executor comparison ({args.shards} shards, cold, no cache) ---\n"
        f"{executor_comparison}\n"
        f"--- perfmodel: predicted vs measured cost per request ---\n{cycle_lines}"
        + ("\n--- telemetry exports ---\n" + "\n".join(export_lines) if export_lines else "")
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "table2":
        output = _run_table2()
    elif args.command == "table3":
        output = _run_table3(args)
    elif args.command == "table5":
        output = _run_table5()
    elif args.command == "table6":
        output = _run_table6()
    elif args.command == "figure6":
        output = _run_figure6()
    elif args.command == "figure7":
        output = _run_figure7()
    elif args.command == "ablation-rfft":
        output = _run_ablation_rfft()
    elif args.command == "ablation-agg-only":
        output = _run_ablation_agg_only(args)
    elif args.command == "eval-bench":
        output = _run_eval_bench(args)
    elif args.command == "profile":
        output = _run_profile(args)
    elif args.command == "search":
        output = _run_search(args)
    elif args.command == "partition":
        output = _run_partition(args)
    elif args.command == "serve-bench":
        output = _run_serve_bench(args)
    else:  # pragma: no cover - argparse enforces the choices
        raise SystemExit(f"unknown command {args.command}")
    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
