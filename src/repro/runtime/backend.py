"""Execution backends: one task-graph contract, two ways to run it.

The discrete-event :class:`~repro.runtime.scheduler.ListScheduler` answers
*"how long would this graph take on P workers?"* deterministically; the
threaded backend (:mod:`repro.runtime.async_exec`) answers *"what happens
when the same graph actually runs concurrently?"*.  Both sit behind the
:class:`ExecutionBackend` protocol so the solver runs on either one; the
runtime's scheduler axis (:func:`repro.runtime.runtime.make_executor`)
picks:

* ``simulated`` (scheduler ``"list"``) — schedule with the list
  scheduler, then replay task actions sequentially in launch order.
  Deterministic, zero concurrency.
* ``threaded`` (scheduler ``"threaded"``) — schedule with the list
  scheduler for the *simulated* timeline (keeping every clock-dependent
  decision bit-identical to the simulated backend), and additionally
  execute the graph for real on a pool of worker threads:
  dependency-tracked dispatch, priority ordering, per-page locks,
  measured wall-clock intervals per task.

Every backend returns an :class:`ExecutionResult` carrying the simulated
schedule plus (for real backends) the measured wall-clock data used by
the vulnerable-window monitor and the overhead reports.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.runtime.graph import TaskGraph
from repro.runtime.plan import IterationPlan
from repro.runtime.scheduler import ListScheduler, ScheduleResult
from repro.runtime.task import TaskKind
from repro.runtime.trace import StateBreakdown


@dataclass(frozen=True)
class WallInterval:
    """Measured wall-clock execution of one task (seconds, run-relative)."""

    start: float
    end: float
    worker: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "WallInterval") -> bool:
        """True if the two intervals intersect in wall-clock time."""
        return self.start < other.end and other.start < self.end


@dataclass
class ExecutionResult:
    """Simulated schedule plus (optionally) measured real execution.

    ``schedule`` is ``None`` for execution-only runs
    (:meth:`ThreadedBackend.execute <repro.runtime.async_exec.ThreadedBackend.execute>`),
    where the caller already holds the simulated timeline and only the
    measured data is new.
    """

    schedule: Optional[ScheduleResult] = None
    backend: str = "simulated"
    #: True when task actions ran concurrently on real threads.
    executed_real: bool = False
    #: Wall-clock span of the real execution (0 for pure simulation).
    wall_time: float = 0.0
    #: Per-task measured intervals, keyed by task name (real backends).
    wall_intervals: Dict[str, WallInterval] = field(default_factory=dict)
    #: Return values of the task actions, keyed by task name.
    values: Dict[str, object] = field(default_factory=dict)
    #: Task kinds by name (from the graph), used by the measured-data
    #: queries so they never need the simulated schedule.
    kinds: Dict[str, TaskKind] = field(default_factory=dict)

    # -- measured-execution queries -------------------------------------
    def overlapped(self, name_a: str, name_b: str) -> bool:
        """True if two tasks measurably executed at the same wall time."""
        a = self.wall_intervals.get(name_a)
        b = self.wall_intervals.get(name_b)
        return a is not None and b is not None and a.overlaps(b)

    def recovery_overlaps(self) -> int:
        """Recovery tasks whose wall interval overlapped a non-recovery
        task's interval on a different worker thread — the direct
        observation that recovery really ran off the critical path."""
        if not self.wall_intervals:
            return 0
        recovery: List[Tuple[str, WallInterval]] = []
        others: List[WallInterval] = []
        for name, interval in self.wall_intervals.items():
            if self.kinds.get(name) is TaskKind.RECOVERY:
                recovery.append((name, interval))
            else:
                others.append(interval)
        count = 0
        for _, rec in recovery:
            if any(rec.overlaps(o) and o.worker != rec.worker
                   for o in others):
                count += 1
        return count

    def recovery_halo_overlaps(self) -> int:
        """Recovery tasks whose measured wall interval overlapped a
        communication task's interval (the re-enacted halo exchange of
        the ranks placement) — the paper's asynchrony claim at
        distributed scale, observed directly."""
        comm = [interval for name, interval in self.wall_intervals.items()
                if self.kinds.get(name) is TaskKind.COMMUNICATION]
        if not comm:
            return 0
        count = 0
        for name, interval in self.wall_intervals.items():
            if self.kinds.get(name) is not TaskKind.RECOVERY:
                continue
            if any(interval.overlaps(c) for c in comm):
                count += 1
        return count

    def measured_breakdown(self, num_workers: int) -> StateBreakdown:
        """Per-state wall-clock accounting of the real execution,
        mirroring the simulated :class:`StateBreakdown` of Table 3."""
        breakdown = StateBreakdown()
        if not self.wall_intervals:
            return breakdown
        busy = 0.0
        for name, interval in self.wall_intervals.items():
            kind = self.kinds.get(name, TaskKind.COMPUTE)
            busy += interval.duration
            if kind is TaskKind.RECOVERY:
                breakdown.recovery += interval.duration
            elif kind is TaskKind.CHECKPOINT:
                breakdown.checkpoint += interval.duration
            elif kind is TaskKind.COMMUNICATION:
                breakdown.communication += interval.duration
            else:
                breakdown.useful += interval.duration
        breakdown.idle = max(num_workers * self.wall_time - busy, 0.0)
        return breakdown


class ExecutionBackend(abc.ABC):
    """Common contract of the simulated and threaded graph executors.

    Both backends share one deterministic :class:`ListScheduler`, so the
    *simulated* timeline (makespans, point times, traces) is bit-identical
    whichever backend a solver is configured with; they differ only in
    whether task actions additionally execute concurrently for real.
    """

    name: str = "abstract"

    def __init__(self, num_workers: int,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 charge_overhead: bool = True):
        self.num_workers = int(num_workers)
        self.cost_model = cost_model
        self.scheduler = ListScheduler(num_workers, cost_model=cost_model,
                                       charge_overhead=charge_overhead)

    # ------------------------------------------------------------------
    def simulate(self, graph: Union[TaskGraph, IterationPlan],
                 start_time: float = 0.0,
                 durations: Optional[Sequence[float]] = None
                 ) -> ScheduleResult:
        """Timing-only pass: schedule, execute nothing.

        A :class:`TaskGraph` is compiled and scheduled from scratch; a
        compiled :class:`IterationPlan` is only re-timed, with
        ``durations`` (plan order) in place of its base durations.
        """
        if isinstance(graph, IterationPlan):
            return self.scheduler.retime(graph, durations, start_time)
        if durations is not None:
            raise ValueError("durations re-time a compiled IterationPlan; "
                             "a TaskGraph carries its own")
        return self.scheduler.run(graph, start_time=start_time,
                                  execute_actions=False)

    @abc.abstractmethod
    def run(self, graph: TaskGraph, start_time: float = 0.0
            ) -> ExecutionResult:
        """Schedule the graph and execute its task actions."""

    @abc.abstractmethod
    def execute(self, graph: TaskGraph) -> ExecutionResult:
        """Execute the graph's actions without re-deriving its simulated
        timeline (``result.schedule`` is ``None``); measured wall
        intervals are still recorded — the re-enactment's entry point."""

    def close(self) -> None:
        """Release any real resources (worker threads); idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SimulatedBackend(ExecutionBackend):
    """The discrete-event backend: schedule, then replay actions serially.

    Action replay is the scheduler's own (launch order, the same order
    :meth:`ScheduleResult.order_started` reports), so there is exactly
    one replay code path and the trace and numerical side effects can
    never disagree.
    """

    name = "simulated"

    def run(self, graph: TaskGraph, start_time: float = 0.0
            ) -> ExecutionResult:
        # Compiling the graph validates it and runs the opt-in
        # REPRO_VERIFY_GRAPHS=1 assertion.
        schedule = self.scheduler.run(graph, start_time=start_time,
                                      execute_actions=True)
        # wall_time stays 0.0: nothing executed concurrently, so there
        # is no measured span (the field's contract for pure simulation).
        return ExecutionResult(schedule=schedule, backend=self.name,
                               executed_real=False,
                               values=dict(schedule.values),
                               kinds={t.name: t.kind for t in graph.tasks})

    def execute(self, graph: TaskGraph) -> ExecutionResult:
        """Serial measured replay (the ``list`` scheduler's ``wall`` clock).

        Actions run back-to-back in the scheduler's launch order on the
        calling thread, each with a measured wall interval on worker 0.
        Nothing overlaps by construction — this is the serialised
        baseline the threaded scheduler's measured overlap is compared
        against.  The extra list schedule derives the launch order only;
        its timing is discarded (``result.schedule`` stays ``None``).
        """
        # simulate() compiles the graph: validation plus the opt-in
        # REPRO_VERIFY_GRAPHS=1 assertion.
        order = self.simulate(graph).order_started()
        tasks = {t.name: t for t in graph.tasks}
        intervals: Dict[str, WallInterval] = {}
        values: Dict[str, object] = {}
        t0 = time.perf_counter()  # repro-lint: allow[wall-clock] measured serial intervals, reported not fingerprinted
        for name in order:
            action = tasks[name].action
            began = time.perf_counter() - t0  # repro-lint: allow[wall-clock] measured serial intervals, reported not fingerprinted
            value = action() if action is not None else None
            ended = time.perf_counter() - t0  # repro-lint: allow[wall-clock] measured serial intervals, reported not fingerprinted
            intervals[name] = WallInterval(start=began, end=ended, worker=0)
            values[name] = value
        wall_time = (max(i.end for i in intervals.values())
                     - min(i.start for i in intervals.values())
                     if intervals else 0.0)
        return ExecutionResult(backend=self.name, executed_real=False,
                               wall_time=wall_time, wall_intervals=intervals,
                               values=values,
                               kinds={t.name: t.kind for t in graph.tasks})
