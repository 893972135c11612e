#!/usr/bin/env python
"""Bench-trend gate: compare ``BENCH_*.json`` artifacts against baselines.

Every benchmark run emits machine-readable ``BENCH_<gate>.json`` records (see
``benchmarks/_emit.py``).  This tool compares the asserted *floor metrics* of
the current run against the committed baselines under
``benchmarks/baselines/`` and **fails (exit 1) when any floor regresses by
more than the tolerance** (default 20%) — so a slow drift that stays above a
gate's hard floor still trips CI, and the repository starts accumulating an
enforced perf trajectory instead of write-only artifacts.

Only ratio/rate metrics are tracked (speedups and hit rates measure the same
machine against itself, so they transfer across runners; raw req/s numbers do
not).  A result whose ``quick`` flag differs from the baseline's is skipped
with a warning — quick-mode and full-mode workloads are not comparable.
A baseline file with no ``FLOOR_METRICS`` row (an *orphan*, typically left
behind when a gate is deleted) fails the run so dead data cannot pile up.

Refreshing baselines after an intentional change::

    BLOCKGNN_QUICK=1 BLOCKGNN_STRICT_PERF=0 PYTHONPATH=src \
        python -m pytest benchmarks/bench_serving.py \
        benchmarks/bench_serving_hotpath.py benchmarks/bench_serving_halo.py \
        benchmarks/bench_serving_faults.py \
        benchmarks/bench_serving_supervisor.py \
        benchmarks/bench_serving_multiprocess.py \
        benchmarks/bench_serving_frontdoor.py \
        -q --benchmark-disable
    cp benchmarks/results/BENCH_<gate>.json benchmarks/baselines/
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List

#: gate name -> higher-is-better floor metrics enforced against the baseline.
FLOOR_METRICS: Dict[str, List[str]] = {
    "serving_microbatch_throughput": ["speedup"],
    "serving_halo_cold": ["speedup_halo_cold", "halo_hit_rate"],
    "serving_faults": ["throughput_ratio"],
    "serving_supervisor": ["steady_state_ratio"],
    "serving_multiprocess": ["healed_steady_state_ratio"],
    "serving_frontdoor": ["backfill_shed_share"],
}


def _load(path: pathlib.Path) -> dict:
    with path.open() as handle:
        return json.load(handle)


def compare(results_dir: pathlib.Path, baselines_dir: pathlib.Path, tolerance: float) -> int:
    orphans = sorted(
        path.name
        for path in baselines_dir.glob("BENCH_*.json")
        if path.stem[len("BENCH_"):] not in FLOOR_METRICS
    )
    if orphans:
        print("bench-trend FAILED: baselines with no FLOOR_METRICS row:")
        for name in orphans:
            print(f"  {name}")
        return 1
    regressions: List[str] = []
    compared = 0
    for name, metrics in sorted(FLOOR_METRICS.items()):
        baseline_path = baselines_dir / f"BENCH_{name}.json"
        result_path = results_dir / f"BENCH_{name}.json"
        if not baseline_path.exists():
            print(f"note: no baseline for {name} (new gate?) — record one")
            continue
        if not result_path.exists():
            print(f"warning: {name} has a baseline but produced no result this run")
            continue
        baseline = _load(baseline_path)
        result = _load(result_path)
        if baseline.get("quick") != result.get("quick"):
            print(
                f"warning: {name} skipped — baseline quick={baseline.get('quick')} "
                f"vs result quick={result.get('quick')}"
            )
            continue
        for metric in metrics:
            base_value = baseline.get("metrics", {}).get(metric)
            new_value = result.get("metrics", {}).get(metric)
            if base_value is None or new_value is None:
                print(f"warning: {name}.{metric} missing on one side — skipped")
                continue
            compared += 1
            floor = base_value * (1.0 - tolerance)
            status = "ok" if new_value >= floor else "REGRESSION"
            print(
                f"{status:10s} {name}.{metric}: {new_value:.3f} "
                f"(baseline {base_value:.3f}, floor {floor:.3f})"
            )
            if new_value < floor:
                regressions.append(
                    f"{name}.{metric} regressed to {new_value:.3f} "
                    f"(> {tolerance * 100:.0f}% below baseline {base_value:.3f})"
                )
    if not compared:
        have_baselines = any(
            (baselines_dir / f"BENCH_{name}.json").exists() for name in FLOOR_METRICS
        )
        if have_baselines:
            print(
                "bench-trend FAILED: baselines exist but nothing was compared — "
                "the bench run stopped emitting results (or their quick flags "
                "all mismatch); the gate would otherwise pass vacuously"
            )
            return 1
        print("warning: nothing compared — no baselines recorded yet")
    if regressions:
        print("\nbench-trend FAILED:")
        for line in regressions:
            print(f"  {line}")
        return 1
    print(f"\nbench-trend ok: {compared} floor metric(s) within tolerance")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    root = pathlib.Path(__file__).parent
    parser.add_argument("--results", type=pathlib.Path, default=root / "results")
    parser.add_argument("--baselines", type=pathlib.Path, default=root / "baselines")
    parser.add_argument(
        "--tolerance", type=float, default=0.20,
        help="allowed fractional drop below baseline before failing (default 0.20)",
    )
    args = parser.parse_args(argv)
    return compare(args.results, args.baselines, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
