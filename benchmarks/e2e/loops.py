"""The request loops: closed-loop windows and the open-loop driver.

Both check every answer against the offline reference as they go and keep
the per-request timestamps the metrics are computed from.
"""

from __future__ import annotations

import gc
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.serving import InferenceServer

from . import spans
from .common import WINDOW, clock
from .estimator import iqr_share, nearest_rank, quiet, quiet_scaled
from .hostprobe import HostProbe
from .spec import LATENCY_LIMIT_MS

#: Open loop: slice length in due time, idle sleep cap.
OPEN_SLICE_S = 0.125
OPEN_SLEEP_S = 0.0005


@dataclass
class Tally:
    """Operations attempted, and failed by cause."""

    attempted: int = 0
    causes: Counter = field(default_factory=Counter)

    @property
    def failed(self) -> int:
        return sum(self.causes.values())


@dataclass
class Batch:
    """Per-request outcome of a window or an open-loop run."""

    good: np.ndarray        # completed with the reference prediction
    enqueue: np.ndarray
    completion: np.ndarray
    worker: np.ndarray


def collect(handles, nodes: np.ndarray, reference: np.ndarray, tally: Tally) -> Batch:
    """Check every answer against the offline reference and count failures."""
    count = len(handles)
    completed = np.empty(count, dtype=bool)
    prediction = np.empty(count, dtype=np.int64)
    enqueue = np.empty(count)
    completion = np.empty(count)
    worker = np.empty(count, dtype=np.int64)
    for index, handle in enumerate(handles):
        request = handle.request
        ok = request.status == "completed"
        completed[index] = ok
        prediction[index] = request.prediction if ok else -1
        enqueue[index] = request.enqueue_time
        completion[index] = request.completion_time if ok else np.nan
        worker[index] = request.worker_id if ok else -1
        if not ok:
            tally.causes[request.status] += 1
    good = completed & (prediction == reference[nodes])
    tally.attempted += count
    tally.causes["wrong"] += int((completed & ~good).sum())
    return Batch(good, enqueue, completion, worker)


@dataclass
class SliceStats:
    """One closed-loop slice: a single 256-request window."""

    wall: float
    goodput: float
    p50_ms: float
    p90_ms: float
    latencies_ms: np.ndarray
    batch: Batch


class ClosedLoop:
    """256-request windows: ``submit_many`` then ``drain``, one after another.

    Every window is a slice.  Before every ``windows_per_collect``-th window,
    never inside one, ``gc.collect()`` runs and the host probe, if there is
    one, is sampled.
    """

    def __init__(
        self,
        server: InferenceServer,
        reference: np.ndarray,
        draw: Callable[[int], np.ndarray],
        tally: Tally,
        refresh: Optional[Callable[[], None]] = None,
        windows_per_collect: int = 1,
        probe: Optional[HostProbe] = None,
    ) -> None:
        self.server = server
        self.reference = reference
        self.draw = draw
        self.tally = tally
        self.refresh = refresh
        self.windows_per_collect = windows_per_collect
        self.probe = probe

    def window(self, recorder: Optional[spans.SpanRecorder] = None) -> SliceStats:
        server = self.server
        nodes = self.draw(WINDOW)
        node_list = nodes.tolist()
        if self.refresh is not None:
            self.refresh()
        if recorder is not None:
            recorder.window += 1
            root = recorder.begin("harness.window")
        start = clock()
        handles = server.submit_many(node_list)
        server.drain()
        wall = clock() - start
        if recorder is not None:
            recorder.end(root)
        batch = collect(handles, nodes, self.reference, self.tally)
        latencies = 1e3 * (batch.completion - batch.enqueue)[batch.good]
        return SliceStats(
            wall=wall,
            goodput=float(batch.good.sum()) / wall,
            p50_ms=nearest_rank(latencies, 0.5) if len(latencies) else float("inf"),
            p90_ms=nearest_rank(latencies, 0.9) if len(latencies) else float("inf"),
            latencies_ms=latencies,
            batch=batch,
        )

    def run(
        self,
        count: int,
        recorder: Optional[spans.SpanRecorder] = None,
        seconds: float = 0.0,
    ) -> List[SliceStats]:
        """``count`` windows, then further ones until ``seconds`` have passed.

        The timed sections run against a deadline, so that a run takes as long
        on a slow host, or after a change that slowed the program, as on a
        fast one; every window is the same work, and the quiet estimate of 150
        of them is that of 200.
        """
        out: List[SliceStats] = []
        deadline = clock() + seconds
        while len(out) < count or clock() < deadline:
            if len(out) % self.windows_per_collect == 0:
                gc.collect()
                if self.probe is not None:
                    self.probe.sample()
            out.append(self.window(recorder))
        return out


def summarise_slices(series: Sequence[SliceStats], scale: float = 1.0) -> Dict[str, float]:
    """Quiet goodput; latency as its typical share of the window's wall time
    at the quiet wall time (``quiet_scaled``).  ``scale`` takes times to the
    nominal host speed (``HostProbe.scale()``)."""
    wall_ms = [1e3 * s.wall for s in series]
    return {
        "goodput_per_s": quiet([s.goodput for s in series], "higher") / scale,
        "latency_p50_ms": quiet_scaled([s.p50_ms for s in series], wall_ms) * scale,
        "latency_p90_ms": quiet_scaled([s.p90_ms for s in series], wall_ms) * scale,
    }


def slice_diagnostics(series: Sequence[SliceStats]) -> Dict[str, float]:
    latencies = np.concatenate([s.latencies_ms for s in series])
    return {
        "slices": len(series),
        "samples": int(len(latencies)),
        "latency_p99_ms": nearest_rank(latencies, 0.99),
        "host.slice_iqr_share": iqr_share([s.wall for s in series]),
    }


@dataclass
class OpenRun:
    due: np.ndarray          # absolute due times
    batch: Batch
    duration: float


def open_loop(
    server: InferenceServer,
    nodes: np.ndarray,
    offsets: np.ndarray,
    reference: np.ndarray,
    tally: Tally,
    recorder: Optional[spans.SpanRecorder] = None,
) -> OpenRun:
    """One driver thread: submit when due, otherwise poll and sleep <= 0.5 ms.

    Arrivals follow ``offsets`` whatever the server does, so its queues can
    grow; latency is later counted from the due time, which charges a stall
    to every request that had to wait behind it.
    """
    node_list = nodes.tolist()
    count = len(node_list)
    slice_of = (offsets / OPEN_SLICE_S).astype(np.int64).tolist()
    submit, poll, sleep = server.submit, server.poll, time.sleep
    handles = []
    root = -1
    current = -1
    start = clock()
    due = (start + offsets).tolist()
    index = 0
    while index < count:
        if recorder is not None and slice_of[index] != current:
            if root >= 0:
                recorder.end(root)
            current = slice_of[index]
            recorder.window = current
            root = recorder.begin("harness.slice")
        if clock() >= due[index]:
            handles.append(submit(node_list[index]))
            index += 1
            continue
        poll()
        wait = due[index] - clock()
        if wait > 0:
            if recorder is None:
                sleep(min(wait, OPEN_SLEEP_S))
            else:
                idle = recorder.begin("harness.idle")
                sleep(min(wait, OPEN_SLEEP_S))
                recorder.end(idle)
    server.drain()
    duration = clock() - start
    if root >= 0:
        recorder.end(root)
    return OpenRun(np.asarray(due), collect(handles, nodes, reference, tally), duration)


def timely_share(run: OpenRun) -> float:
    """Share of all arrivals answered correctly within the limit of their due time."""
    latency_ms = 1e3 * (run.batch.completion - run.due)
    return float((run.batch.good & (latency_ms <= LATENCY_LIMIT_MS)).mean())


def open_slices(run: OpenRun, offsets: np.ndarray) -> Dict[str, list]:
    """Latency from due, per slice of due time (slices without one good
    answer have no latency; their requests count as failed operations)."""
    latency_ms = 1e3 * (run.batch.completion - run.due)
    slice_of = (offsets / OPEN_SLICE_S).astype(np.int64)
    out = {"p50": [], "p90": []}
    # The schedule ends inside its last slice; a part slice is not a sample.
    for index in range(int(slice_of.max())):
        answered = latency_ms[(slice_of == index) & run.batch.good]
        if len(answered):
            out["p50"].append(nearest_rank(answered, 0.5))
            out["p90"].append(nearest_rank(answered, 0.9))
    return out


def poisson_offsets(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """Exactly ``rate * seconds`` arrivals with exponential gaps; never less
    than a second of them, so that a quick run still has whole slices."""
    return np.cumsum(rng.exponential(1.0 / rate, size=int(round(rate * max(seconds, 1.0)))))
