"""Deterministic, seedable fault injection for the serving plane.

Production serving has to survive replicas that raise, hang, die or flap —
but those failure modes are miserable to test against wall-clock
threads.  A :class:`FaultPlan` makes every one of them a *simulated*,
reproducible event: the engine consults the plan once per batch dispatch
(``decide(worker_id, now)``), and the plan answers from per-replica counters
and seeded RNG streams, so with the :class:`~repro.serving.clock.ManualClock`
and the serial executor an entire chaos scenario replays bit-for-bit.

Failure modes (one decision per dispatch, first matching spec wins):

``raise``
    The dispatch fails immediately, as if the replica raised mid-batch (or —
    once workers become processes — died).  Drawn with ``fail_rate`` or
    forced by the deterministic ``flap_period``/``flap_down`` schedule.
``hang``
    The dispatch consumes ``hang_seconds`` of clock time (past any sane
    deadline) and then fails, as a stuck replica caught by a timeout would.
``die``
    Permanent crash: once drawn (``die_rate``), *every* later dispatch to
    that replica fails too, regardless of spec windows — the replica is a
    corpse until :meth:`FaultPlan.revive` (called when the
    :class:`~repro.serving.replicas.ReplicaSet` rebuilds the worker,
    modelling a fresh process).
``kill``
    ``die`` delivered as a real ``SIGKILL`` when the replica is a worker
    process (``kill_rate``).

Specs can be windowed in clock time (``after``/``until``) and restricted to
specific replicas (``workers``), so a test can script "replica 2 dies at
t=1.0 and recovers at t=3.0" exactly.

The plan is injected through :attr:`repro.serving.ServingConfig.fault_plan`
or the ``serve-bench --fault-*`` CLI flags; it never touches the worker's
compute, so a run with a plan whose rates are all zero is byte-identical to
a run without one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "FaultSpec",
    "FaultDecision",
    "FaultPlan",
    "InjectedFault",
    "ReplicaHung",
    "ReplicaDead",
    "FAULT_KINDS",
]

FAULT_KINDS = ("raise", "hang", "die", "kill")


class InjectedFault(RuntimeError):
    """Raised (by the engine, on the plan's behalf) in place of a worker crash."""


class ReplicaHung(RuntimeError):
    """A dispatch that consumed its hang budget without answering (timeout)."""


class ReplicaDead(RuntimeError):
    """A dispatch to a permanently crashed replica (``kind="die"`` fired)."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault source: who it hits, when it is live, and how it fails.

    Parameters
    ----------
    workers:
        Worker ids the spec applies to (``None`` = every replica).
    fail_rate, hang_rate:
        Per-dispatch probabilities of each failure mode; together with
        ``die_rate`` and ``kill_rate`` their sum must not exceed 1 (a single
        uniform draw picks among them).
    hang_seconds:
        Simulated clock time a hung dispatch burns before it is declared
        dead — choose it larger than any request deadline under test.
    die_rate:
        Per-dispatch probability of a *permanent* crash: once it fires the
        replica stays dead (every later dispatch fails with ``die``) until
        the plan is told the worker was rebuilt via
        :meth:`FaultPlan.revive`.
    kill_rate:
        Per-dispatch probability of a *process* kill: the engine delivers a
        real ``SIGKILL`` to the worker's pid when the replica is a process
        (``executor="process"``), and degrades to ``die`` semantics for
        in-process workers.  Like ``die``, the replica stays dead until
        revived by a replica rebuild.
    flap_period, flap_down:
        Deterministic flapping: out of every ``flap_period`` dispatches to a
        replica, the first ``flap_down`` fail (``raise``).  ``0`` disables
        flapping.  Flap failures are checked before the random draw, so a
        flapping replica flaps identically under any seed.
    after, until:
        Clock window in which the spec is active (``until=None`` = forever).
    """

    workers: Optional[Tuple[int, ...]] = None
    fail_rate: float = 0.0
    hang_rate: float = 0.0
    die_rate: float = 0.0
    kill_rate: float = 0.0
    hang_seconds: float = 0.05
    flap_period: int = 0
    flap_down: int = 0
    after: float = 0.0
    until: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("fail_rate", "hang_rate", "die_rate", "kill_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {rate}")
        total = self.fail_rate + self.hang_rate + self.die_rate + self.kill_rate
        if total > 1.0 + 1e-12:
            raise ValueError("fail_rate + hang_rate + die_rate + kill_rate must not exceed 1")
        if self.hang_seconds < 0:
            raise ValueError("hang_seconds must be non-negative")
        if self.flap_period < 0 or self.flap_down < 0:
            raise ValueError("flap_period and flap_down must be non-negative")
        if self.flap_period and self.flap_down > self.flap_period:
            raise ValueError("flap_down cannot exceed flap_period")
        if self.until is not None and self.until < self.after:
            raise ValueError("until must be >= after")
        if self.workers is not None:
            object.__setattr__(self, "workers", tuple(int(w) for w in self.workers))

    def applies_to(self, worker_id: int) -> bool:
        return self.workers is None or worker_id in self.workers

    def active_at(self, now: float) -> bool:
        return now >= self.after and (self.until is None or now < self.until)


@dataclass(frozen=True)
class FaultDecision:
    """What the plan chose for one dispatch: the mode and its time cost."""

    kind: str           # one of FAULT_KINDS
    seconds: float = 0.0


class FaultPlan:
    """A seedable schedule of replica faults, consulted once per dispatch.

    Determinism: each worker gets its own RNG stream seeded from
    ``(seed, worker_id)`` plus a dispatch counter, so the decision sequence a
    replica sees depends only on the plan's seed and how many times that
    replica was dispatched — not on thread interleaving of *other* replicas.
    Under the serial executor the whole run is therefore reproducible.

    Thread-safe (the concurrent executor dispatches from pool threads); the
    ``injected`` counters record how many faults of each kind actually fired.
    """

    def __init__(self, specs: Union[FaultSpec, Sequence[FaultSpec]], seed: int = 0) -> None:
        if isinstance(specs, FaultSpec):
            specs = (specs,)
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        if not self.specs:
            raise ValueError("a FaultPlan needs at least one FaultSpec")
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._rngs: Dict[int, np.random.Generator] = {}
        self._dispatches: Dict[int, int] = {}
        self._dead: set = set()  # workers whose "die" fired and were not revived
        self.injected: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        # Optional per-kind counter sinks (telemetry); a plan can be shared
        # with at most one instrumented server at a time (last bind wins).
        self._kind_counters: Dict[str, object] = {}

    def bind_metrics(self, kind_family) -> None:
        """Mirror injected faults into per-kind registry counters."""
        with self._lock:
            self._kind_counters = {kind: kind_family.labels(kind) for kind in FAULT_KINDS}

    def _record(self, kind: str) -> None:
        """Count one injected fault (caller holds the lock)."""
        self.injected[kind] += 1
        counter = self._kind_counters.get(kind)
        if counter is not None:
            counter.inc()

    @classmethod
    def replica_failures(
        cls, rate: float, seed: int = 0, workers: Optional[Sequence[int]] = None
    ) -> "FaultPlan":
        """Convenience: every dispatch independently raises with ``rate``."""
        spec_workers = None if workers is None else tuple(workers)
        return cls(FaultSpec(workers=spec_workers, fail_rate=rate), seed=seed)

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def dead_workers(self) -> Tuple[int, ...]:
        """Worker ids currently held dead by a fired ``die`` fault."""
        with self._lock:
            return tuple(sorted(self._dead))

    def revive(self, worker_id: int) -> None:
        """Clear a worker's permanent-crash flag (its process was rebuilt).

        Only the dead flag is dropped — RNG streams and dispatch counters are
        kept, so the rest of the schedule stays deterministic across revivals.
        """
        with self._lock:
            self._dead.discard(int(worker_id))

    def reset(self) -> None:
        """Forget dispatch counters and RNG state (fresh, replayable plan)."""
        with self._lock:
            self._rngs.clear()
            self._dispatches.clear()
            self._dead.clear()
            self.injected = {kind: 0 for kind in FAULT_KINDS}

    def decide(self, worker_id: int, now: float) -> Optional[FaultDecision]:
        """The fault (if any) to inject into this dispatch of ``worker_id``."""
        worker_id = int(worker_id)
        with self._lock:
            dispatch = self._dispatches.get(worker_id, 0)
            self._dispatches[worker_id] = dispatch + 1
            rng = self._rngs.get(worker_id)
            if rng is None:
                rng = np.random.default_rng([self.seed, worker_id])
                self._rngs[worker_id] = rng
            if worker_id in self._dead:
                # A corpse fails every dispatch, regardless of spec windows.
                self._record("die")
                return FaultDecision("die")
            for spec in self.specs:
                if not spec.applies_to(worker_id) or not spec.active_at(now):
                    continue
                if spec.flap_period and dispatch % spec.flap_period < spec.flap_down:
                    self._record("raise")
                    return FaultDecision("raise")
                draw = float(rng.random())
                if draw < spec.die_rate:
                    self._dead.add(worker_id)
                    self._record("die")
                    return FaultDecision("die")
                if draw < spec.die_rate + spec.fail_rate:
                    self._record("raise")
                    return FaultDecision("raise")
                if draw < spec.die_rate + spec.fail_rate + spec.hang_rate:
                    self._record("hang")
                    return FaultDecision("hang", seconds=spec.hang_seconds)
                # kill draws last so adding kill_rate never perturbs which
                # dispatches an existing seeded plan fails with other kinds.
                if draw < spec.die_rate + spec.fail_rate + spec.hang_rate + spec.kill_rate:
                    self._dead.add(worker_id)
                    self._record("kill")
                    return FaultDecision("kill")
            return None

    def describe(self) -> str:
        parts = []
        for spec in self.specs:
            scope = "all replicas" if spec.workers is None else f"workers {list(spec.workers)}"
            window = "" if spec.until is None and spec.after == 0.0 else (
                f", window [{spec.after:g}, {'inf' if spec.until is None else f'{spec.until:g}'})"
            )
            flap = (
                f", flap {spec.flap_down}/{spec.flap_period}" if spec.flap_period else ""
            )
            die = f", die {spec.die_rate:.0%}" if spec.die_rate else ""
            kill = f", kill {spec.kill_rate:.0%}" if spec.kill_rate else ""
            parts.append(
                f"{scope}: raise {spec.fail_rate:.0%}, hang {spec.hang_rate:.0%}"
                f" ({spec.hang_seconds * 1e3:g} ms){die}{kill}{flap}{window}"
            )
        return f"FaultPlan(seed={self.seed}): " + "; ".join(parts)
