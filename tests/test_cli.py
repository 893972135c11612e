"""Tests for the command-line interface."""

from __future__ import annotations

import re

import numpy as np
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
        with pytest.raises(SystemExit):
            parser.parse_args(["serve-bench", "--overload-policy", "block"])

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
        assert re.search(r"\b(\d+)/\1 served predictions equal full_forward", output)

    def test_serve_bench_exits_nonzero_on_a_wrong_answer(self, capsys, monkeypatch):
        from repro.serving import ShardWorker

        predict = ShardWorker.predict
        monkeypatch.setattr(ShardWorker, "predict", lambda self, nodes: predict(self, nodes) + 1)
        with pytest.raises(SystemExit, match="differ from full_forward"):
            main(
                [
                    "serve-bench",
                    "--dataset", "cora",
                    "--scale", "0.05",
                    "--hidden", "16",
                    "--epochs", "1",
                    "--requests", "16",
                    "--halo-tier", "off",
                ]
            )
        assert "served predictions equal full_forward" in capsys.readouterr().out

    def test_serve_bench_exits_nonzero_when_a_request_is_left_pending(self, monkeypatch):
        # A drain that leaves queued requests behind: the handles stay
        # pending and the pass's terminal counts fall short of the stream.
        from repro.serving import InferenceServer

        monkeypatch.setattr(InferenceServer, "drain", lambda self, timeout=None: 0)
        with pytest.raises(SystemExit, match="ledger does not close"):
            main(
                [
                    "serve-bench",
                    "--dataset", "cora",
                    "--scale", "0.05",
                    "--hidden", "16",
                    "--epochs", "1",
                    "--requests", "16",
                    "--halo-tier", "off",
                ]
            )

    def test_serve_bench_exits_nonzero_when_a_fold_drops_a_row(self, monkeypatch):
        # A fold that marks every row taken but bins one latency fewer: the
        # histograms then fall one short of the completed requests.
        from repro.serving.batcher import LedgerBlock

        unfolded = LedgerBlock.unfolded

        def dropping(self):
            values, shards, new = unfolded(self)
            completed = np.flatnonzero(new[1])
            if len(completed):
                new[1, completed[0]] = False
            return values, shards, new

        monkeypatch.setattr(LedgerBlock, "unfolded", dropping)
        with pytest.raises(SystemExit, match="histograms disagree with the ledger"):
            main(
                [
                    "serve-bench",
                    "--dataset", "cora",
                    "--scale", "0.05",
                    "--hidden", "16",
                    "--epochs", "1",
                    "--requests", "16",
                    "--halo-tier", "off",
                ]
            )

    def test_serve_bench_exits_nonzero_when_a_span_is_dropped(self, monkeypatch):
        # A tracer that loses the first settled row without counting it as
        # dropped: the pass's spans then fall one short of its handles.
        from repro.telemetry import RequestTracer

        on_settled = RequestTracer.on_settled
        lost = []

        def dropping(self, status, end, columns):
            if not lost:
                lost.append(int(columns["request_id"][0]))
                columns = {field: values[1:] for field, values in columns.items()}
            on_settled(self, status, end, columns)

        monkeypatch.setattr(RequestTracer, "on_settled", dropping)
        with pytest.raises(SystemExit, match="trace disagrees with the ledger"):
            main(
                [
                    "serve-bench",
                    "--dataset", "cora",
                    "--scale", "0.05",
                    "--hidden", "16",
                    "--epochs", "1",
                    "--requests", "16",
                    "--halo-tier", "off",
                    "--telemetry", "trace",
                ]
            )
        assert lost

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
        # Serving is exact over one embedding store: no mode or retention flags,
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
