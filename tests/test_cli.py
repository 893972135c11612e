"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        for command in (
            ["table2"],
            ["table5"],
            ["table6"],
            ["figure6"],
            ["figure7"],
            ["ablation-rfft"],
            ["profile", "--model", "GAT"],
            ["search", "--dataset", "cora"],
            ["table3", "--epochs", "2", "--block-sizes", "1", "4"],
            ["partition", "--parts", "4", "--method", "hash"],
            ["serve-bench", "--shards", "2", "--fanouts", "4", "3"],
            [
                "serve-bench",
                "--executor", "concurrent",
                "--max-queue-depth", "64",
                "--overload-policy", "shed_oldest",
                "--deadline-ms", "50",
            ],
        ):
            args = parser.parse_args(command)
            assert args.command == command[0]

    def test_serve_bench_rejects_unknown_executor_and_policy(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["serve-bench", "--executor", "fibers"])
        with pytest.raises(SystemExit):
            parser.parse_args(["serve-bench", "--overload-policy", "drop"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table9"])


class TestExecution:
    def test_table2_command_prints_profile(self, capsys):
        assert main(["table2"]) == 0
        output = capsys.readouterr().out
        assert "GS-Pool" in output and "GCN" in output

    def test_profile_command(self, capsys):
        assert main(["profile", "--model", "G-GCN"]) == 0
        assert "G-GCN" in capsys.readouterr().out

    def test_ablation_rfft_command(self, capsys):
        assert main(["ablation-rfft"]) == 0
        assert "RFFT" in capsys.readouterr().out

    def test_search_command_on_small_task(self, capsys):
        assert main(["search", "--model", "GCN", "--dataset", "cora", "--hidden", "128"]) == 0
        output = capsys.readouterr().out
        assert "optimal" in output and "cycles" in output

    def test_partition_command_reports_per_part_stats(self, capsys):
        assert main(
            ["partition", "--dataset", "cora", "--scale", "0.05", "--parts", "3", "--seed", "1"]
        ) == 0
        output = capsys.readouterr().out
        assert "cut edges" in output and "halo" in output and "total cut edges" in output

    def test_serve_bench_command_on_tiny_graph(self, capsys):
        assert main(
            [
                "serve-bench",
                "--dataset", "cora",
                "--scale", "0.05",
                "--hidden", "16",
                "--epochs", "1",
                "--requests", "48",
                "--batch-size", "16",
                "--shards", "2",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "latency p50" in output
        assert "embedding cache" in output
        assert "cycles/request" in output
        assert "executor comparison" in output
        assert "concurrent" in output
        assert "flush stages" in output

    def test_serve_bench_command_with_admission_control(self, capsys):
        assert main(
            [
                "serve-bench",
                "--dataset", "cora",
                "--scale", "0.05",
                "--hidden", "16",
                "--epochs", "1",
                "--requests", "48",
                "--batch-size", "8",
                "--shards", "2",
                "--executor", "concurrent",
                "--max-queue-depth", "128",
                "--overload-policy", "shed_oldest",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "admission" in output
        assert "queues <= 128 (shed_oldest)" in output

    def test_serve_bench_rejects_unknown_cache_policy(self):
        parser = build_parser()
        for argv in (["--cache-policy", "lru"], ["--pin-fraction", "0.5"]):
            with pytest.raises(SystemExit):
                parser.parse_args(["serve-bench", *argv])

    def test_serve_bench_rejects_deleted_flags(self):
        # Serving is exact over an LRU cache: no mode or retention flags,
        # no hedged dispatch, no work stealing and no executor pool sizing;
        # no slow faults, retry backoff or budget, stale reads or
        # supervisor window either.  Healing is always on and dispatch is
        # always round-robin.
        args = vars(build_parser().parse_args(["serve-bench"]))
        deleted = {
            "mode",
            "cache_policy",
            "pin_fraction",
            "hedge_after_ms",
            "work_stealing",
            "executor_workers",
            "num_processes",
            "fault_slow_rate",
            "fault_slow_ms",
            "retry_backoff_ms",
            "degraded_policy",
            "supervisor_budget",
            "supervisor_window_ms",
            "retry_budget",
            "retry_budget_refill",
            "supervisor",
            "dispatch",
        }
        assert not deleted & set(args)
        for argv in (
            ["--work-stealing"],
            ["--executor-workers", "4"],
            ["--num-processes", "4"],
            ["--fault-slow-rate", "0.1"],
            ["--fault-slow-ms", "5"],
            ["--retry-backoff-ms", "0.5"],
            ["--degraded-policy", "stale_ok"],
            ["--supervisor-budget", "1"],
            ["--supervisor-window-ms", "1000"],
            ["--retry-budget", "4"],
            ["--retry-budget-refill", "0.5"],
            ["--supervisor"],
            ["--dispatch", "least_loaded"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve-bench", *argv])
