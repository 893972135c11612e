"""Spans recorded from outside the program.

The traced run wraps public callables of ``repro`` (``install``) so that each
call becomes a span — name, start, end, parent span, window id — kept in
memory and written as a Chrome trace when the run ends.  Nothing in ``src/``
knows about it: the wrappers are installed and removed by the benchmark.

A span's *self time* is its duration minus the part of it covered by its
child spans (the union, because flush tasks of one round run side by side on
executor threads).  The ledger closes when the time inside the harness's own
root spans that no wrapped call covers is a negligible share of the wall
time measured independently by the workload loop.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

NAME, START, END, PARENT, WINDOW, THREAD, ARG = range(7)

#: Root spans opened by the workload loops themselves; their self time is
#: what no program layer accounts for.
ROOT_NAMES = ("harness.window", "harness.slice")


class SpanRecorder:
    """Append-only span store with one open-span stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self.window = -1
        self._driver = threading.get_ident()
        self._driver_stack: List[int] = []
        self._local = threading.local()
        self._patches: List[tuple] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> List[int]:
        if threading.get_ident() == self._driver:
            return self._driver_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, arg=None) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._driver_stack and self._driver_stack:
            # An executor thread's first span: caused by the engine call the
            # driver thread is blocked in.
            parent = self._driver_stack[-1]
        else:
            parent = -1
        index = len(self.spans)
        span = [name, 0.0, 0.0, parent, self.window, threading.get_ident(), arg]
        self.spans.append(span)
        stack.append(index)
        span[START] = self.clock()
        return index

    def end(self, index: int) -> None:
        now = self.clock()
        self.spans[index][END] = now
        self._stack().pop()

    # -- wrapping public callables ---------------------------------------------

    def wrap(self, owner, attr: str, name: str, arg_of: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a version that records a span per call."""
        original = getattr(owner, attr)
        begin, end = self.begin, self.end

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = begin(name, arg_of(*args) if arg_of is not None else None)
            try:
                return original(*args, **kwargs)
            finally:
                end(index)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------------

    def self_seconds(self) -> List[float]:
        """Self time of every span: duration minus the union of its children."""
        children: Dict[int, List[tuple]] = defaultdict(list)
        for span in self.spans:
            if span[PARENT] >= 0:
                children[span[PARENT]].append((span[START], span[END]))
        result = []
        for index, span in enumerate(self.spans):
            start, end = span[START], span[END]
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(index, ())):
                child_start = max(child_start, cursor)
                child_end = min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            result.append((end - start) - covered)
        return result

    def self_by_name(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for span, seconds in zip(self.spans, self.self_seconds()):
            totals[span[NAME]] += seconds
        return dict(totals)

    def total_by_name(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span[NAME]] += span[END] - span[START]
        return dict(totals)

    def ledger_residual_share(self, wall_seconds: float) -> float:
        """Share of the measured wall time no wrapped call accounts for."""
        own = self.self_by_name()
        totals = self.total_by_name()
        unattributed = sum(own.get(name, 0.0) for name in ROOT_NAMES)
        roots = sum(totals.get(name, 0.0) for name in ROOT_NAMES)
        return (unattributed + abs(wall_seconds - roots)) / wall_seconds

    def named(self, name: str) -> List[list]:
        return [span for span in self.spans if span[NAME] == name]

    # -- export ----------------------------------------------------------------

    def write_chrome_trace(self, path) -> None:
        """One complete ("X") event per span; load in chrome://tracing or Perfetto."""
        if not self.spans:
            origin = 0.0
        else:
            origin = min(span[START] for span in self.spans)
        lanes: Dict[int, int] = {}
        events = []
        for index, span in enumerate(self.spans):
            lane = lanes.setdefault(span[THREAD], len(lanes))
            args = {"span": index, "parent": span[PARENT], "window": span[WINDOW]}
            if span[ARG] is not None:
                args["arg"] = span[ARG]
            events.append(
                {
                    "name": span[NAME],
                    "ph": "X",
                    "ts": (span[START] - origin) * 1e6,
                    "dur": (span[END] - span[START]) * 1e6,
                    "pid": 1,
                    "tid": lane,
                    "args": args,
                }
            )
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def _worker_id(worker, *_args) -> int:
    return worker.worker_id


def _model_name(model, *_args) -> str:
    return type(model).__name__


def install(recorder: SpanRecorder, models=(), open_loop: bool = False) -> None:
    """Wrap the public callables each layer is entered through.

    ``submit`` is wrapped only for the open loop, whose driver calls it
    directly; in the closed loops it runs inside ``submit_many`` 256 times
    per window and a span each would measure the wrapper.
    """
    from repro.graph.restriction import Restriction
    from repro.models.base import GNNModel
    from repro.nn import linear
    from repro.serving import InferenceServer, ProcessWorkerHandle, ShardWorker

    recorder.wrap(InferenceServer, "submit_many", "engine.submit_many")
    recorder.wrap(InferenceServer, "drain", "engine.drain")
    if open_loop:
        recorder.wrap(InferenceServer, "submit", "engine.submit")
        recorder.wrap(InferenceServer, "poll", "engine.poll")
    recorder.wrap(ShardWorker, "predict", "worker.predict", _worker_id)
    recorder.wrap(ProcessWorkerHandle, "predict", "procplane.predict", _worker_id)
    recorder.wrap(Restriction, "__init__", "graph.restriction")
    recorder.wrap(GNNModel, "full_forward", "models.full_forward", _model_name)
    for layer_class in {type(layer) for model in models for layer in model.layers}:
        recorder.wrap(layer_class, "forward_restricted", "models.forward_restricted")
    recorder.wrap(linear, "circulant_linear", "compression.circulant_linear")
