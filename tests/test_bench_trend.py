"""Tests for the bench-trend gate (``benchmarks/trend.py``)."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

TREND_PATH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "trend.py"


@pytest.fixture(scope="module")
def trend():
    spec = importlib.util.spec_from_file_location("bench_trend", TREND_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(directory: pathlib.Path, name: str, **metrics) -> None:
    directory.mkdir(exist_ok=True)
    record = {"name": name, "schema": 1, "quick": True, "metrics": metrics}
    (directory / f"BENCH_{name}.json").write_text(json.dumps(record))


@pytest.fixture
def dirs(tmp_path):
    results, baselines = tmp_path / "results", tmp_path / "baselines"
    results.mkdir()
    baselines.mkdir()
    return results, baselines


def test_orphan_baseline_fails_and_is_named(trend, dirs, capsys):
    results, baselines = dirs
    _write(baselines, "serving_faults", throughput_ratio=1.0)
    _write(results, "serving_faults", throughput_ratio=1.0)
    _write(baselines, "deleted_gate", speedup=2.0)
    assert trend.compare(results, baselines, 0.2) == 1
    assert "BENCH_deleted_gate.json" in capsys.readouterr().out


def test_matched_pair_within_tolerance_passes(trend, dirs):
    results, baselines = dirs
    _write(baselines, "serving_faults", throughput_ratio=1.0)
    _write(results, "serving_faults", throughput_ratio=0.9)
    assert trend.compare(results, baselines, 0.2) == 0


def test_regression_fails(trend, dirs, capsys):
    results, baselines = dirs
    _write(baselines, "serving_faults", throughput_ratio=1.0)
    _write(results, "serving_faults", throughput_ratio=0.5)
    assert trend.compare(results, baselines, 0.2) == 1
    assert "serving_faults.throughput_ratio regressed" in capsys.readouterr().out
