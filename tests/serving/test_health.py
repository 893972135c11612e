"""Unit tests for the per-replica circuit breaker (``repro.serving.health``).

State machine under test: ``closed`` → (``failure_threshold`` consecutive
failures) → ``open`` → (cooldown elapses) → ``half_open`` probe → success
closes / failure re-opens.
All transitions are pure clock arithmetic, so every schedule here is exact.
"""

from __future__ import annotations

import pytest

from repro.serving import HealthTracker


def _tracker(**overrides):
    defaults = dict(failure_threshold=3, cooldown=1.0)
    defaults.update(overrides)
    return HealthTracker([0, 1], **defaults)


class TestBreakerLifecycle:
    def test_starts_closed_and_available(self):
        tracker = _tracker()
        assert tracker.state(0, now=0.0) == "closed"
        assert tracker.available(0, now=0.0)
        assert tracker.healthy(0, now=0.0)

    def test_opens_after_consecutive_failures(self):
        tracker = _tracker(failure_threshold=3)
        for _ in range(2):
            tracker.record_failure(0, now=0.0)
        assert tracker.state(0, now=0.0) == "closed"  # threshold not reached
        tracker.record_failure(0, now=0.0)
        assert tracker.state(0, now=0.0) == "open"
        assert not tracker.available(0, now=0.5)
        # The sibling is unaffected.
        assert tracker.state(1, now=0.0) == "closed"

    def test_success_resets_the_consecutive_count(self):
        tracker = _tracker(failure_threshold=2)
        tracker.record_failure(0, now=0.0)
        tracker.record_success(0, now=0.0)
        tracker.record_failure(0, now=0.0)
        assert tracker.state(0, now=0.0) == "closed"  # 1 + reset + 1, never 2

    def test_half_open_after_cooldown_then_probe_closes(self):
        tracker = _tracker(failure_threshold=1, cooldown=1.0)
        tracker.record_failure(0, now=0.0)
        assert tracker.state(0, now=0.5) == "open"
        assert tracker.state(0, now=1.0) == "half_open"
        assert tracker.available(0, now=1.0)  # exactly one probe is admitted
        tracker.record_success(0, now=1.0)
        assert tracker.state(0, now=1.0) == "closed"
        assert tracker.snapshot(0).probes == 1

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        tracker = _tracker(failure_threshold=1, cooldown=1.0)
        tracker.record_failure(0, now=0.0)
        tracker.record_failure(0, now=1.0)  # the probe fails
        assert tracker.state(0, now=1.5) == "open"      # cooldown restarted at 1.0
        assert tracker.state(0, now=2.0) == "half_open"  # next probe window

    def test_opens_counter_counts_trips(self):
        tracker = _tracker(failure_threshold=1, cooldown=1.0)
        tracker.record_failure(0, now=0.0)
        tracker.record_success(0, now=1.0)  # probe closes it
        tracker.record_failure(0, now=2.0)
        assert tracker.snapshot(0).opens == 2


class TestPartition:
    def test_partition_splits_closed_and_probing(self):
        tracker = _tracker(failure_threshold=1, cooldown=1.0)
        tracker.record_failure(1, now=0.0)
        assert tracker.partition([0, 1], now=0.5) == ([0], [])   # 1 still cooling
        assert tracker.partition([0, 1], now=1.0) == ([0], [1])  # 1 probes now

    def test_reset_restores_pristine_state(self):
        tracker = _tracker(failure_threshold=1)
        tracker.record_failure(0, now=0.0)
        tracker.reset()
        assert tracker.state(0, now=0.0) == "closed"
        assert tracker.snapshot(0).failures == 0

    def test_reset_clears_bound_metric_counters_and_open_ledger(self):
        # Regression: reset() used to leave the bound registry counters (and
        # the monotone open ledger) standing, so a post-reset tracker claimed
        # zero failures while its exported metrics said otherwise.
        class Counter:
            def __init__(self):
                self.value = 0

            def inc(self, amount=1):
                self.value += amount

            def reset(self):
                self.value = 0

            def labels(self, *values):
                return self

        failures, opens = Counter(), Counter()
        tracker = _tracker(failure_threshold=1, cooldown=1.0)
        tracker.bind_metrics(failures, opens)
        tracker.record_failure(0, now=0.0)
        tracker.record_failure(1, now=0.0)
        assert failures.value == 2 and opens.value == 2
        assert tracker.total_opens == 2
        tracker.reset()
        assert failures.value == 0 and opens.value == 0
        assert tracker.total_opens == 0


class TestQuarantine:
    def test_quarantined_replicas_never_dispatch(self):
        tracker = _tracker(failure_threshold=1, cooldown=0.0)
        tracker.quarantine(0)
        assert tracker.state(0, now=100.0) == "quarantined"
        assert not tracker.available(0, now=100.0)  # no cooldown re-admission
        assert tracker.partition([0, 1], now=100.0) == ([1], [])
        # Late signals from in-flight attempts against the corpse are counted
        # as samples but never change state: only reinstate() resurrects.
        tracker.record_success(0, now=100.0)
        assert tracker.state(0, now=100.0) == "quarantined"
        tracker.record_failure(0, now=100.0)
        assert tracker.state(0, now=100.0) == "quarantined"
        assert tracker.total_opens == 0  # no open events either

    def test_reinstate_gives_a_clean_record(self):
        tracker = _tracker(failure_threshold=1, cooldown=1.0)
        tracker.record_failure(0, now=0.0)
        tracker.quarantine(0)
        tracker.reinstate(0)
        assert tracker.state(0, now=0.0) == "closed"
        record = tracker.snapshot(0)
        assert record.failures == 0 and record.opens == 0
        # The tracker-level open ledger is monotone: reinstate never rolls
        # it back (it gates the supervisor's cheap tick).
        assert tracker.total_opens == 1

    def test_failed_probes_count_as_open_events(self):
        tracker = _tracker(failure_threshold=1, cooldown=1.0)
        tracker.record_failure(0, now=0.0)   # trip (open #1)
        tracker.record_failure(0, now=1.0)   # failed probe (re-open #2)
        tracker.record_failure(0, now=2.0)   # failed probe (re-open #3)
        # .opens keeps its original meaning: closed->open trips only.
        assert tracker.snapshot(0).opens == 1
        assert tracker.total_opens == 3


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            HealthTracker([0], failure_threshold=0)
        with pytest.raises(ValueError):
            HealthTracker([0], cooldown=-1.0)
