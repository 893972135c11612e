"""Unit tests for the serving building blocks: clock and micro-batcher."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import InferenceRequest, ManualClock, MicroBatcher
from repro.serving.batcher import LedgerBlock, WindowRows


class TestManualClock:
    def test_starts_at_zero_and_advances(self):
        clock = ManualClock()
        assert clock.now() == 0.0
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now() == 2.0

    def test_rejects_negative_advance(self):
        with pytest.raises(ValueError):
            ManualClock().advance(-1.0)


def _request(request_id: int, node: int, shard: int, at: float) -> InferenceRequest:
    return InferenceRequest(request_id=request_id, node=node, shard_id=shard, enqueue_time=at)


class TestMicroBatcher:
    def test_size_trigger(self):
        batcher = MicroBatcher(num_shards=1, max_batch_size=3, max_delay=10.0)
        for index in range(2):
            batcher.enqueue(_request(index, index, 0, at=0.0))
        assert batcher.due_shards(now=0.0) == []
        batcher.enqueue(_request(2, 2, 0, at=0.0))
        assert batcher.due_shards(now=0.0) == [0]
        batch = batcher.pop_batch(0)
        assert [request.request_id for request in batch] == [0, 1, 2]
        assert batcher.flushes == {"size": [1], "delay": [0], "forced": [0]}

    def test_delay_trigger_uses_oldest_request(self):
        batcher = MicroBatcher(num_shards=2, max_batch_size=10, max_delay=0.5)
        batcher.enqueue(_request(0, 0, 0, at=1.0))
        batcher.enqueue(_request(1, 1, 1, at=1.4))
        assert batcher.due_shards(now=1.2) == []
        assert batcher.due_shards(now=1.5) == [0]
        batcher.pop_batch(0)
        assert batcher.flushes["delay"] == [1, 0]
        assert batcher.due_shards(now=1.9) == [1]

    def test_forced_flush_counts_separately(self):
        batcher = MicroBatcher(num_shards=1, max_batch_size=10, max_delay=10.0)
        batcher.enqueue(_request(0, 0, 0, at=0.0))
        batcher.pop_batch(0, forced=True)
        assert batcher.flushes["forced"] == [1]
        assert batcher.pending == 0

    def test_pop_respects_max_batch_size(self):
        batcher = MicroBatcher(num_shards=1, max_batch_size=2, max_delay=0.0)
        for index in range(5):
            batcher.enqueue(_request(index, index, 0, at=0.0))
        assert len(batcher.pop_batch(0)) == 2
        assert batcher.pending == 3

    def test_stamp_ends_a_chunk_where_a_shard_may_come_due(self):
        # One clock read per row; the chunk ends at the row that fills a
        # shard's batch, or at the first row stamped at or after the
        # earliest a row of the chunk could come due (its delay or deadline).
        block = LedgerBlock(None, 8)
        block.take(0, np.arange(8), np.array([0, 1, 0, 1, 1, 0, 0, 1]))

        def stamp(max_queue_depth=None, watched=True, timeout=None):
            batcher = MicroBatcher(2, max_batch_size=3, max_delay=5.0,
                                   max_queue_depth=max_queue_depth)
            window = WindowRows(block, 0, 8, num_shards=2, watched=watched)
            ticks = iter(range(100))
            block.enqueue[:] = block.deadline[:] = -1.0
            stop = batcher.stamp(lambda: float(next(ticks)), window, 0, 8, timeout)
            assert block.enqueue.tolist() == [*range(stop), *[-1.0] * (8 - stop)]
            if timeout is not None:
                assert np.array_equal(block.deadline[:stop], block.enqueue[:stop] + timeout)
            return stop

        assert stamp() == 5                   # row 4 fills shard 1's batch
        assert stamp(timeout=2.5) == 4        # row 0's deadline is due at 2.5
        assert stamp(max_queue_depth=8) == 1  # bounded: every row is a chunk
        assert stamp(watched=False) == 8      # nothing acts on admissions

    def test_enqueue_rows_asks_for_the_flush_loop_once_a_shard_is_due(self):
        batcher = MicroBatcher(num_shards=2, max_batch_size=4, max_delay=5.0)
        block = LedgerBlock(None, 8)
        block.take(0, np.arange(8), np.array([0, 1, 0, 1, 1, 0, 0, 1]))
        block.enqueue[:] = np.arange(8.0)
        window = WindowRows(block, 0, 8, num_shards=2)
        # Row 0's delay comes due at 5: chunks stamped before it stay stale.
        assert not batcher.enqueue_rows(window, 0, 2) and window.stale
        assert not batcher.enqueue_rows(window, 2, 5) and window.stale
        assert batcher.enqueue_rows(window, 5, 6) and not window.stale
        assert [batcher.queue_depth(shard) for shard in (0, 1)] == [3, 3]
        # An unwatched window never asks, and is never stale.
        unwatched = WindowRows(block, 6, 8, num_shards=2, watched=False)
        assert not batcher.enqueue_rows(unwatched, 6, 8) and not unwatched.stale
        assert batcher.pending == 8

    def test_rows_of_one_block_queued_out_of_row_order_pop_by_request_id(self):
        # Concurrent submitters can admit rows of one ledger block out of
        # row order; the queue still pops them in request-id order.
        batcher = MicroBatcher(num_shards=1, max_batch_size=2, max_delay=1.0)
        block = LedgerBlock(None, 4)
        block.take(0, np.arange(4), np.zeros(4, dtype=np.int64))
        block.enqueue[:] = [0.1, 0.2, 0.0, 0.3]
        for row in (2, 0, 1, 3):
            batcher.enqueue(InferenceRequest._view(block, row))
        assert [request.request_id for request in batcher.pop_batch(0)] == [0, 1]
        assert [request.request_id for request in batcher.pop_batch(0)] == [2, 3]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MicroBatcher(1, max_batch_size=0, max_delay=0.0)
        with pytest.raises(ValueError):
            MicroBatcher(1, max_batch_size=1, max_delay=-1.0)
        with pytest.raises(ValueError, match="max_delay"):
            MicroBatcher(1, max_batch_size=1, max_delay=float("nan"))

    def test_pending_request_result_raises(self):
        request = _request(0, 0, 0, at=0.0)
        assert not request.done
        with pytest.raises(RuntimeError):
            request.result()
        with pytest.raises(RuntimeError):
            _ = request.latency
