"""The request histograms are folded from the ledger, not observed per batch.

What is pinned down here:

* on a scripted :class:`ManualClock` run whose every clock read moves the
  clock by a dyadic step (so every sum is exact in any order), the exported
  queue-wait, class queue-wait and latency histograms — Prometheus text and
  JSON — are byte-identical to what observing each popped and each
  completed batch gives, across three ``reset_stats()`` calls: on a fresh
  server, between windows, and with rows settled while others of their
  block are still queued;
* the same run's counts and sums equal a regression snapshot of them;
* every row is folded exactly once (an export in mid-window takes what was
  popped and settled so far, the next takes the rest), and a block leaves
  the fold's bookkeeping once its rows have settled.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.compression import CompressionConfig
from repro.models import create_model
from repro.serving import InferenceServer, ManualClock, ServingConfig
from repro.serving.frontdoor import DEFAULT_REQUEST_CLASSES
from repro.serving.metrics import ServingMetrics
from repro.telemetry import MetricsRegistry, metrics_json, prometheus_text

FAMILIES = (
    "serving_class_queue_wait_seconds",
    "serving_request_latency_seconds",
    "serving_queue_wait_seconds",
)
_FAMILY_LINE = re.compile(
    r"^(# (HELP|TYPE) )?(" + "|".join(FAMILIES) + r")(_bucket|_sum|_count)?[{ ]"
)

#: Per checkpoint of :func:`_script`: family -> {label: (count, sum)}
#: (children with no observation left out).  A regression snapshot of the
#: fold, not figures of the per-batch implementation: those were taken
#: while the workers' stage timers read ``perf_counter``.  In-process
#: workers now time their stages on the server's clock, whose every read
#: steps here, so the script's outcomes moved (the sums grew, and more of
#: the last window's rows expire) and the figures were re-pinned.  The
#: oracle is the live per-batch replay in the test, which rebuilds every
#: histogram independently.
SNAPSHOT_FIGURES = [
    {
        "serving_class_queue_wait_seconds": {"standard": (40, 0.2412109375)},
        "serving_request_latency_seconds": {"0": (17, 0.201171875), "1": (23, 0.28173828125)},
        "serving_queue_wait_seconds": {"0": (17, 0.099853515625), "1": (23, 0.141357421875)},
    },
    {
        "serving_class_queue_wait_seconds": {
            "premium": (30, 0.118896484375),
            "backfill": (10, 0.088134765625),
        },
        "serving_request_latency_seconds": {"0": (17, 0.141357421875), "1": (17, 0.16357421875)},
        "serving_queue_wait_seconds": {"0": (20, 0.057861328125), "1": (20, 0.149169921875)},
    },
    {
        "serving_class_queue_wait_seconds": {"standard": (5, 0.016845703125)},
        "serving_request_latency_seconds": {"1": (5, 0.03515625)},
        "serving_queue_wait_seconds": {"1": (5, 0.016845703125)},
    },
    {
        "serving_class_queue_wait_seconds": {"standard": (55, 0.260986328125)},
        "serving_request_latency_seconds": {"0": (9, 0.047119140625), "1": (21, 0.12451171875)},
        "serving_queue_wait_seconds": {"0": (21, 0.106689453125), "1": (34, 0.154296875)},
    },
]


class SteppingClock(ManualClock):
    """Every read moves the clock on by ``2**-12`` s: a dyadic step, so each
    sum of waits and latencies is exact whatever order it is taken in, and
    no two reads share a time."""

    def now(self) -> float:
        return self.advance(2.0 ** -12)


def _model(graph):
    return create_model(
        "GCN",
        in_features=graph.num_features,
        hidden_features=16,
        num_classes=graph.num_classes,
        compression=CompressionConfig(block_size=1),
        seed=0,
    )


def _server(model, graph, clock=None, **overrides):
    defaults = dict(
        num_shards=2, max_batch_size=8, max_delay=2.0 ** -6, cache_capacity=1024, seed=0
    )
    defaults.update(overrides)
    return InferenceServer(model, graph, ServingConfig(**defaults), clock=clock or ManualClock())


def _script(server):
    """Four windows and three resets; yields ``(handles since the last
    reset, the time of that reset)`` at each checkpoint."""
    rng = np.random.default_rng(3)
    clock = server.clock
    server.reset_stats()  # on a fresh server
    since = clock.now()
    handles = server.submit_many(rng.integers(0, 120, 40))
    server.drain()
    yield handles, since

    server.reset_stats()  # between windows
    since = clock.now()
    handles = server.submit_many(rng.integers(0, 120, 30), request_class="premium")
    for node in rng.integers(0, 120, 10):
        handles.append(server.submit(int(node), request_class="backfill", timeout=2.0 ** -9))
    clock.advance(2.0 ** -5)
    server.poll()
    yield handles, since

    # 21 rows: full batches flush as they fill, the rest of the block stays
    # queued, so its settled rows are not folded yet when the reset comes.
    handles = server.submit_many(rng.integers(0, 120, 21))
    assert any(handle.done for handle in handles) and not all(handle.done for handle in handles)
    server.reset_stats()
    since = clock.now()
    server.drain()
    yield handles, since

    handles += server.submit_many(rng.integers(0, 120, 50), timeout=2.0 ** -8)
    clock.advance(2.0 ** -7)
    server.drain()
    yield handles, since


def _per_batch(handles, since, num_shards):
    """The request histograms as per-batch observation builds them: every
    popped batch's queue waits by shard and class, every completed batch's
    latencies by shard, batch by batch in clock order."""
    metrics = ServingMetrics(
        MetricsRegistry(), num_shards, class_names=[name for name, _ in DEFAULT_REQUEST_CLASSES]
    )
    popped, completed = {}, {}
    for handle in handles:
        if handle.dequeue_time is not None and handle.dequeue_time > since:
            popped.setdefault((handle.dequeue_time, handle.shard_id), []).append(handle)
        if handle.completed and handle.completion_time > since:
            completed.setdefault((handle.completion_time, handle.shard_id), []).append(handle)
    for (at, shard_id), batch in sorted(popped.items()):
        waits = np.array([at - handle.enqueue_time for handle in batch])
        metrics.queue_wait[shard_id].observe_many(waits)
        for name in dict.fromkeys(handle.request_class for handle in batch):
            metrics.class_queue_wait[name].observe_many(
                waits[[handle.request_class == name for handle in batch]]
            )
    for (at, shard_id), batch in sorted(completed.items()):
        metrics.latency[shard_id].observe_many([at - handle.enqueue_time for handle in batch])
    return metrics.registry


def _prometheus(text):
    return "\n".join(line for line in text.splitlines() if _FAMILY_LINE.match(line))


def _json(text):
    snapshot = json.loads(text)
    return json.dumps({name: snapshot[name] for name in FAMILIES}, sort_keys=True)


def _figures(snapshot):
    return {
        name: {
            sample["labels"][0]: (sample["value"]["count"], sample["value"]["sum"])
            for sample in snapshot[name]["samples"]
            if sample["value"]["count"]
        }
        for name in FAMILIES
    }


class TestFoldEqualsPerBatchObservation:
    def test_exports_are_byte_identical_across_three_resets(self, small_graph):
        server = _server(_model(small_graph), small_graph, clock=SteppingClock())
        checkpoints = 0
        for checkpoint, (handles, since) in enumerate(_script(server)):
            expected = _per_batch(handles, since, len(server.shards))
            assert _prometheus(server.telemetry.prometheus_text()) == _prometheus(
                prometheus_text(expected)
            )
            assert _json(server.telemetry.metrics_json()) == _json(metrics_json(expected))
            assert _figures(server.telemetry.snapshot()) == SNAPSHOT_FIGURES[checkpoint]
            checkpoints += 1
        assert checkpoints == len(SNAPSHOT_FIGURES)
        server.shutdown()

    def test_the_script_reaches_every_status(self, small_graph):
        # The checkpoints cover expired and queued-at-reset rows, not only
        # the completed path.
        server = _server(_model(small_graph), small_graph, clock=SteppingClock())
        statuses = set()
        for handles, _ in _script(server):
            statuses.update(handle.status for handle in handles)
        assert {"completed", "expired"} <= statuses
        server.shutdown()


class TestFoldBookkeeping:
    def test_an_export_mid_window_takes_each_row_once(self, small_graph):
        server = _server(_model(small_graph), small_graph, max_delay=1.0)
        server.scheduler.flush_on_submit = False
        handles = server.submit_many(np.arange(30))
        server.poll()  # full batches only: the rest stays queued
        snapshot = server.telemetry.snapshot()
        popped = sum(handle.dequeue_time is not None for handle in handles)
        completed = sum(handle.completed for handle in handles)
        assert 0 < popped < len(handles)
        assert _count(snapshot, "serving_queue_wait_seconds") == popped
        assert _count(snapshot, "serving_request_latency_seconds") == completed
        server.drain()
        snapshot = server.telemetry.snapshot()
        assert _count(snapshot, "serving_queue_wait_seconds") == len(handles)
        assert _count(snapshot, "serving_request_latency_seconds") == len(handles)
        assert _count(server.telemetry.snapshot(), "serving_queue_wait_seconds") == len(handles)
        server.shutdown()

    def test_settled_blocks_leave_the_fold(self, small_graph):
        server = _server(_model(small_graph), small_graph)
        handles = server.submit_many(np.arange(40))
        assert server._folding  # rows queued: the block waits for its fold
        server.drain()
        assert all(handle.completed for handle in handles)
        assert not server._folding
        block = handles[0]._block
        assert block.folded == block.used and block.folds is None

    @pytest.mark.parametrize("policy", ["reject", "shed_oldest"])
    def test_rows_never_popped_have_no_queue_wait(self, small_graph, policy):
        server = _server(
            _model(small_graph), small_graph, max_queue_depth=2, overload_policy=policy
        )
        server.scheduler.flush_on_submit = False
        handles = server.submit_many(np.arange(40))
        server.drain()
        turned_away = sum(handle.status in ("rejected", "shed") for handle in handles)
        assert turned_away > 0
        snapshot = server.telemetry.snapshot()
        assert _count(snapshot, "serving_queue_wait_seconds") == len(handles) - turned_away
        assert _count(snapshot, "serving_request_latency_seconds") == sum(
            handle.completed for handle in handles
        )
        server.shutdown()

    def test_telemetry_off_folds_nothing(self, small_graph):
        server = _server(_model(small_graph), small_graph, telemetry="off")
        server.predict(np.arange(20))
        assert server._folding is None and server.telemetry.snapshot() == {}
        server.shutdown()


def _count(snapshot, name):
    return sum(sample["value"]["count"] for sample in snapshot[name]["samples"])
