"""Runner: ``python3 benchmarks/e2e/run.py`` or ``python -m benchmarks.e2e``.

    --workload <name|all> --seed S [--seconds N] [--trace [0|1]] [--quick] [--list]

Starts one fresh child process per (workload, run) with thread counts and
the hash seed pinned, prints every metric by name and unit, writes the same
to ``benchmarks/e2e/out/`` and ends with one JSON line per workload:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Exits non-zero when a child fails or any operation was answered wrongly.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
from typing import Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
if str(ROOT) not in sys.path:  # run as a script: make `benchmarks.e2e` importable
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import spec  # noqa: E402  (needs the path tweak above)

#: A run that takes this long is wedged; the contract allows 180 s.
CHILD_TIMEOUT_S = 170
QUICK_SECONDS = 2.0


def child_environment() -> dict:
    env = dict(os.environ)
    # One compute thread per process: the workloads decide how many
    # processes are busy, not the BLAS pool.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> Optional[dict]:
    """One workload in a fresh process; ``None`` when it failed."""
    command = [
        sys.executable, "-m", "benchmarks.e2e.harness",
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(trace), "--out", str(OUT),
    ]
    if quick:
        command.append("--quick")
    # Own session: a wedged run is killed together with the worker processes
    # it spawned.
    child = subprocess.Popen(
        command, cwd=ROOT, env=child_environment(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        print(f"{workload}: no result within {CHILD_TIMEOUT_S} s (killed)", file=sys.stderr)
        return None
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"{workload}: child exited with code {child.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def report(payload: dict) -> None:
    """Every metric by name and unit, then the contract line."""
    kind = "per-layer (traced run)" if payload["trace"] else "end-to-end"
    print(f"== {payload['workload']}  seed {payload['seed']}  {kind} ==")
    idle = 0
    for name, entry in payload["metrics"].items():
        if payload["trace"] and entry["value"] == 0:
            idle += 1
            continue
        print(f"  {name:<42} {entry['value']:>14.4f} {entry['unit']}")
    if idle:
        print(f"  ({idle} metrics of layers this workload does not exercise read 0)")
    for name, value in payload["diagnostics"].items():
        print(f"  ({name:<40} {value:>14.4f})")
    for name, seconds in sorted(payload.get("self_seconds", {}).items()):
        print(f"  [self time {name:<29} {seconds:>14.4f} s]")
    print(
        f"  operations attempted {payload['attempted']}, failed {payload['failed']}"
        + (f" {payload['failures']}" if payload["failures"] else "")
    )
    print(
        json.dumps(
            {
                "correct": payload["failed"] == 0,
                "attempted": payload["attempted"],
                "failed": payload["failed"],
                "metrics": payload["metrics"],
            }
        ),
        flush=True,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"how long the run measures (default {spec.RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="per-layer metrics from a traced run instead of end-to-end ones")
    parser.add_argument("--quick", action="store_true",
                        help="a few slices and two set-ups: checks the plumbing, not the speed")
    parser.add_argument("--list", action="store_true", help="print workloads and metrics, then exit")
    args = parser.parse_args(argv)

    if args.list:
        for name, why in spec.WORKLOADS.items():
            print(f"{name}: {why}")
        for name, unit, better, bound in spec.END_TO_END:
            print(f"end-to-end {name} [{unit}] {better} is better, bound {bound}")
        for name, unit, better in spec.PER_LAYER:
            print(f"per-layer  {name} [{unit}] {better} is better")
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    seconds = args.seconds or (QUICK_SECONDS if args.quick else float(spec.RUN_SECONDS))

    names = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    OUT.mkdir(exist_ok=True)
    for name in names:
        payload = run_child(name, args.seed, seconds, args.trace, args.quick)
        if payload is None:
            status = 1
            continue
        suffix = "_trace" if args.trace else ""
        (OUT / f"{name}{suffix}.json").write_text(json.dumps(payload, indent=1) + "\n")
        report(payload)
        if payload["failed"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
