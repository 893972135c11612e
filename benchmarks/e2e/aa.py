"""A/A check: does the benchmark agree with itself on this host?

    python3 benchmarks/e2e/aa.py [--runs 5] [--workload NAME ...]

Runs two interleaved sets (A B A B ...) of the same checkout, every run with
another seed, and prints per workload x end-to-end metric both medians, the
quartiles, each set's spread (inter-quartile range over the median), the gap
between the medians and the bound.  Exits 1 when a gap or a spread exceeds
its bound, and marks every spread above a third of its bound: a bound is
meant to be three times the spread seen on a busy host.  A breach is looked
for in the estimator first — more or shorter slices, more set-up repeats, the
host probe — because a bound can be no wider than 0.25.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import spec  # noqa: E402  (needs the path tweak above)


#: Set A runs seeds 100, 102, ...; set B 101, 103, ...
FIRST_SEED = 100


def one_run(workload: str, seed: int) -> Dict[str, float]:
    """The benchmark command as the driver runs it; the last line is the result."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec.RUN_SECONDS), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed operations")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: Sequence[float]) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set (at least 5)")
    parser.add_argument("--workload", action="append", choices=list(spec.WORKLOADS))
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5: quartiles of fewer runs mean nothing")
    workloads = args.workload or list(spec.WORKLOADS)

    samples: Dict[str, Dict[str, Dict[str, List[float]]]] = {
        side: {w: {name: [] for name, *_ in spec.END_TO_END} for w in workloads}
        for side in "AB"
    }
    for index in range(args.runs):
        for offset, side in enumerate("AB"):
            for workload in workloads:
                seed = FIRST_SEED + 2 * index + offset
                values = one_run(workload, seed)
                for name, value in values.items():
                    samples[side][workload][name].append(value)
                print(f"run {index + 1}/{args.runs} set {side} {workload} seed {seed}: "
                      + " ".join(f"{name}={value:.4g}" for name, value in values.items()),
                      file=sys.stderr, flush=True)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "aa.json").write_text(json.dumps(samples, indent=1) + "\n")

    breaches = 0
    header = (f"{'workload':<24}{'metric':<16}{'median A':>12}{'[q1 .. q3]':>26}{'spread':>8}"
              f"{'median B':>12}{'[q1 .. q3]':>26}{'spread':>8}{'gap':>8}{'bound':>7}")
    print(header)
    for workload in workloads:
        for name, _unit, better, bound in spec.END_TO_END:
            cells = []
            medians = []
            verdict = ""
            for side in "AB":
                q1, q2, q3 = quartiles(samples[side][workload][name])
                spread = (q3 - q1) / q2
                medians.append(q2)
                cells.append(f"{q2:>12.4f}{f'[{q1:.4f} .. {q3:.4f}]':>26}{spread:>8.3f}")
                if spread > bound:
                    verdict = "  SPREAD BREACH"
                elif spread > bound / 3 and not verdict:
                    verdict = "  (spread above a third of the bound)"
            # Same code on both sides, so a gap in either direction is noise.
            gap = abs(medians[1] - medians[0]) / medians[0]
            if gap > bound:
                verdict = "  GAP BREACH"
            breaches += "BREACH" in verdict
            print(f"{workload:<24}{name:<16}{cells[0]}{cells[1]}{gap:>8.3f}{bound:>7.2f}{verdict}")
    print(f"{breaches} breach(es) over {len(workloads)} workloads x {len(spec.END_TO_END)} metrics, "
          f"{args.runs} runs per set")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
