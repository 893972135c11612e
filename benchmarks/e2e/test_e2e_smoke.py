"""Smoke test of the end-to-end benchmark (run by path, not part of tier-1):

    python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

A ``--quick`` pass of all four workloads, untraced and traced, plus unit
tests of the estimator and the span arithmetic the numbers rest on.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import spans, spec  # noqa: E402
from benchmarks.e2e.estimator import (  # noqa: E402
    iqr_share,
    nearest_rank,
    quiet,
    quiet_quantile,
    quiet_scaled,
)
from benchmarks.e2e.hostprobe import HostProbe  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SERVING = ("serve_cold", "serve_warm_zipf", "serve_openloop_process")


# -- the estimator ---------------------------------------------------------------


def test_quiet_estimate_survives_injected_stalls():
    """A host that doubles the cost of 40 % of the slices moves the median
    and the mean, not the quiet estimate."""
    rng = np.random.default_rng(0)
    calm = 10.0 * (1.0 + 0.01 * rng.random(200))
    stalled = calm.copy()
    stalled[rng.choice(200, size=80, replace=False)] *= 2.0
    assert quiet(stalled) == pytest.approx(quiet(calm), rel=0.01)
    assert np.mean(stalled) > 1.3 * np.mean(calm)
    # Past half the slices even the median gives way.
    stalled[rng.choice(200, size=120, replace=False)] *= 2.0
    assert np.median(stalled) > 1.5 * np.median(calm)

    rates = 1000.0 / calm
    slowed = 1000.0 / stalled
    assert quiet(slowed, "higher") == pytest.approx(quiet(rates, "higher"), rel=0.02)


def test_quiet_is_not_the_minimum():
    series = [10.0] * 99 + [1.0]  # one lucky slice must not set the number
    assert quiet(series) == 10.0
    # Fewer slices, higher percentile: 8 sweeps read next to the second best.
    # One percentile from 20 slices on: the loops run against a deadline, and
    # the estimate must not step with the count.
    assert [quiet_quantile(n) for n in (8, 19, 20, 500, 3000)] == [0.10, 0.10, 0.05, 0.05, 0.05]
    assert quiet([1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]) == pytest.approx(1.7)
    with pytest.raises(ValueError):
        quiet([])
    with pytest.raises(ValueError):
        quiet([1.0], "sideways")


def test_host_probe_takes_a_slow_run_to_the_nominal_speed():
    """A run that falls wholly into a stretch where the host is 1.5x slower
    has no quiet slice; the kernel timed between its slices is as slow, and
    the scaled figure reads like the calm run's."""
    rng = np.random.default_rng(0)
    calm_probe, slow_probe = HostProbe("numeric"), HostProbe("numeric")
    kernel = calm_probe.nominal * (1.0 + 0.02 * rng.random(100))
    calm_probe.samples = list(kernel)
    slow_probe.samples = list(1.5 * kernel)
    window = 130.0 * (1.0 + 0.02 * rng.random(100))
    assert calm_probe.scale() == pytest.approx(1.0, rel=0.01)
    assert quiet(1.5 * window) * slow_probe.scale() == pytest.approx(
        quiet(window) * calm_probe.scale(), rel=1e-9
    )
    # The kernels are real code and take about their nominal time here.
    for kind in ("numeric", "interpreter"):
        probe = HostProbe(kind)
        probe.sample(30)
        assert 0.3 < probe.scale() < 3.0, kind


def test_quiet_scaled_separates_the_host_from_how_the_requests_fell():
    """Windows whose p50 sits on one of two steps (the cold loop's staircase)
    on a host that stretches 40 % of them 2x: the scaled estimate reads the
    typical step at the quiet speed; the quiet percentile of the p50s reads
    the lucky step."""
    rng = np.random.default_rng(0)
    share = np.where(rng.random(200) < 0.8, 0.20, 0.12)   # p50 / wall, by window
    host = np.where(rng.random(200) < 0.4, 2.0, 1.0)
    wall = 150.0 * (1.0 + 0.01 * rng.random(200)) * host
    assert quiet_scaled(share * wall, wall) == pytest.approx(0.20 * 150.0, rel=0.01)
    assert quiet(share * wall) == pytest.approx(0.12 * 150.0, rel=0.01)


def test_nearest_rank_and_iqr():
    passes = [0.02, 0.25, 0.35, 0.85]  # offline_full: four model passes
    assert nearest_rank(passes, 0.5) == 0.25
    assert nearest_rank(passes, 0.9) == 0.85
    assert iqr_share([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert iqr_share([5.0]) == 0.0


# -- span arithmetic ---------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    """Flush tasks of one round overlap on executor threads (1..4 and 3..6):
    the parent's self time loses their union, 5, not their sum."""
    recorder = spans.SpanRecorder()
    recorder.spans = [
        # name, start, end, parent, window, thread, arg
        ["harness.window", 0.0, 10.0, -1, 0, 1, None],
        ["engine.drain", 1.0, 4.0, 0, 0, 2, None],
        ["engine.drain", 3.0, 6.0, 0, 0, 3, None],
    ]
    own = recorder.self_by_name()
    assert own["harness.window"] == pytest.approx(5.0)
    assert own["engine.drain"] == pytest.approx(6.0)
    assert recorder.ledger_residual_share(10.0) == pytest.approx(0.5)


def test_wrap_records_and_uninstall_restores():
    class Layer:
        def work(self, value):
            return value + 1

    original = Layer.work
    recorder = spans.SpanRecorder()
    recorder.wrap(Layer, "work", "layer.work")
    assert Layer().work(1) == 2
    recorder.uninstall()
    assert Layer.work is original
    assert [span[spans.NAME] for span in recorder.spans] == ["layer.work"]
    assert recorder.spans[0][spans.END] >= recorder.spans[0][spans.START]


# -- names and limits ----------------------------------------------------------------


def test_names_units_and_limits():
    e2e = [name for name, *_ in spec.END_TO_END]
    layer = [name for name, *_ in spec.PER_LAYER]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128
    assert 2 <= len(spec.WORKLOADS) <= 8
    names = e2e + layer + list(spec.WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    units = [unit for _, unit, *_ in spec.END_TO_END] + [unit for _, unit, _ in spec.PER_LAYER]
    assert all(UNIT.match(unit) for unit in units)
    assert all(len(why) <= 200 and "\n" not in why for why in spec.WORKLOADS.values())
    # The contract allows at most 0.25 and wants ``setup_s`` to have the
    # largest; every bound is three times the spread the README reports.
    bounds = {name: bound for name, _, _, bound in spec.END_TO_END}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert spec.E2E_UNITS["setup_s"] == "s"


def test_benchmark_json_is_the_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    assert 1 <= committed["run_seconds"] <= 60
    assert all(not part.startswith("/") and ".." not in part for part in committed["command"])


# -- the quick pass --------------------------------------------------------------------


def _contract_lines(stdout: str) -> dict:
    """The JSON result line of every workload, by position."""
    results = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(spec.WORKLOADS)
    return dict(zip(spec.WORKLOADS, results))


@pytest.fixture(scope="module")
def quick_pass():
    """All four workloads with ``--quick``: the untraced pass, then the traced
    one (one after the other: two cores, and each pass keeps up to three
    processes busy)."""
    command = [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "7"]
    results = []
    for trace in ("0", "1"):
        started = time.perf_counter()
        done = subprocess.run(
            command + ["--trace", trace], cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170
        )
        assert done.returncode == 0
        results.append((_contract_lines(done.stdout), time.perf_counter() - started))
    (untraced, elapsed), (traced, _) = results
    return untraced, traced, elapsed


def test_quick_pass_is_quick(quick_pass):
    """The untraced ``--quick`` pass of all four workloads."""
    assert quick_pass[2] < 60.0


def test_every_e2e_metric_on_every_workload(quick_pass):
    untraced = quick_pass[0]
    for workload, result in untraced.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, workload
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == set(spec.E2E_UNITS), workload
        for name, entry in result["metrics"].items():
            assert entry["unit"] == spec.E2E_UNITS[name]
            assert entry["value"] > 0 and np.isfinite(entry["value"]), (workload, name)


def test_traced_pass_reports_every_layer_and_the_ledger_closes(quick_pass):
    traced = quick_pass[1]
    for workload, result in traced.items():
        assert result["correct"] is True and result["failed"] == 0, workload
        assert set(result["metrics"]) == set(spec.LAYER_UNITS), workload
        assert all(np.isfinite(entry["value"]) for entry in result["metrics"].values())
    for workload in SERVING:
        metrics = traced[workload]["metrics"]
        assert 0 <= metrics["engine.ledger_residual_share"]["value"] <= 0.02, workload
        assert metrics["worker.predict_us_per_req"]["value"] > 0
        assert metrics["engine.self_us_per_req"]["value"] > 0
    offline = traced["offline_full"]["metrics"]
    assert offline["compression.ops_ratio.n8"]["value"] < 1.0
    assert all(offline[f"models.full_forward_ms.{model}"]["value"] > 0 for model in spec.MODELS)
    assert offline["worker.predict_us_per_req"]["value"] == 0  # no serving code ran
    assert traced["serve_warm_zipf"]["metrics"]["cache.hit_ratio"]["value"] == 1.0
    assert traced["serve_openloop_process"]["metrics"]["procplane.rtt_us_per_batch"]["value"] > 0


def test_chrome_traces_are_written(quick_pass):
    for workload in spec.WORKLOADS:
        trace = json.loads((HERE / "out" / f"trace_{workload}.json").read_text())
        events = trace["traceEvents"]
        assert events and all(event["ph"] == "X" and event["dur"] >= 0 for event in events)
        assert {"span", "parent", "window"} <= set(events[0]["args"])
