"""One (workload, run) in this process: the child the runner starts.

Kept apart from ``run.py`` because thread counts and the hash seed must be
pinned in the environment before numpy is imported, and because
``executor="process"`` spawns workers that re-import the main module, which
therefore has to be importable and guarded.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time
from typing import Optional, Sequence


def main(argv: Optional[Sequence[str]] = None) -> int:
    from . import spans, spec, workloads

    parser = argparse.ArgumentParser(prog="benchmarks.e2e.harness")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)

    sizing = workloads.Sizing(seconds=args.seconds, quick=args.quick, trace=bool(args.trace))
    recorder = spans.SpanRecorder() if sizing.trace else None
    started = time.perf_counter()
    result = workloads.WORKLOADS[args.workload](args.seed, sizing, recorder)
    run_s = time.perf_counter() - started
    # Page faults on large temporaries are system time; on this hypervisor
    # their cost comes and goes, and this share says which kind of run it was.
    usage = resource.getrusage(resource.RUSAGE_SELF)
    sys_share = usage.ru_stime / (usage.ru_utime + usage.ru_stime)

    units = spec.LAYER_UNITS if sizing.trace else spec.E2E_UNITS
    missing = sorted(set(units) - set(result.metrics))
    if missing:
        raise RuntimeError(f"{args.workload} did not report {missing}")
    payload = {
        "workload": result.workload,
        "seed": result.seed,
        "trace": int(sizing.trace),
        "seconds": sizing.seconds,
        "attempted": result.tally.attempted,
        "failed": result.tally.failed,
        "failures": {cause: count for cause, count in result.tally.causes.items() if count},
        "metrics": {
            name: {"value": float(result.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
        "diagnostics": {**result.diagnostics, "run_s": run_s, "host.sys_cpu_share": sys_share},
    }
    if recorder is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        trace_path = args.out / f"trace_{result.workload}.json"
        recorder.write_chrome_trace(trace_path)
        payload["trace_file"] = str(trace_path)
        payload["self_seconds"] = recorder.self_by_name()
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
