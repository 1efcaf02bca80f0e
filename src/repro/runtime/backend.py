"""Execution backends: one task-graph contract, two ways to run it.

The discrete-event :class:`~repro.runtime.scheduler.ListScheduler` answers
*"how long would this graph take on P workers?"* deterministically; the
threaded backend (:mod:`repro.runtime.async_exec`) answers *"what happens
when the same graph actually runs concurrently?"*.  Both sit behind the
:class:`ExecutionBackend` protocol so the solver runs on either one; the
runtime's scheduler axis (:func:`repro.runtime.runtime.make_executor`)
picks:

* ``simulated`` (scheduler ``"list"``) — time plans with the list
  scheduler; :meth:`~ExecutionBackend.execute` replays task actions
  sequentially in launch order.  Deterministic, zero concurrency.
* ``threaded`` (scheduler ``"threaded"``) — the same list scheduler for
  the *simulated* timeline (keeping every clock-dependent decision
  bit-identical to the simulated backend); ``execute`` runs the plan for
  real on a pool of worker threads: dependency-tracked dispatch,
  priority ordering, per-page locks, measured wall-clock intervals per
  task.

Both halves consume a compiled :class:`~repro.runtime.plan.IterationPlan`
(a :class:`~repro.runtime.graph.TaskGraph` is compiled on the way in):
``simulate`` re-times it with a durations vector, ``execute`` runs it
with an action table, and the measured side comes back as an
:class:`ExecutionResult` of plan-order columns.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.runtime.graph import TaskGraph
from repro.runtime.plan import IterationPlan, compile_plan
from repro.runtime.scheduler import ListScheduler, ScheduleResult
from repro.runtime.task import TaskKind
from repro.runtime.trace import ExecutionTrace, StateBreakdown


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
    """Measured execution of one plan: columns in plan order.

    ``starts``/``ends`` (run-relative seconds), ``workers`` and
    ``results`` are indexed like the plan's tasks; the name-keyed views
    (``wall_intervals``, ``values``) are derived on demand, so
    re-enacting an iteration never pays for them.
    """

    plan: IterationPlan
    #: True when task actions ran concurrently on real threads.
    executed_real: bool = False
    starts: List[float] = field(default_factory=list)
    ends: List[float] = field(default_factory=list)
    workers: List[int] = field(default_factory=list)
    #: Return values of the task actions.
    results: List[object] = field(default_factory=list)
    #: Wall-clock span of the execution.
    wall_time: float = 0.0

    # -- name-keyed views -------------------------------------------------
    @property
    def wall_intervals(self) -> Dict[str, WallInterval]:
        """Per-task measured intervals by task name."""
        return {name: WallInterval(self.starts[i], self.ends[i],
                                   self.workers[i])
                for i, name in enumerate(self.plan.names)}

    @property
    def values(self) -> Dict[str, object]:
        """Return values of the task actions by task name."""
        return dict(zip(self.plan.names, self.results, strict=True))

    # -- measured-execution queries -------------------------------------
    def _overlap(self, a: int, b: int) -> bool:
        """True if tasks ``a`` and ``b`` measurably ran at the same time."""
        return self.starts[a] < self.ends[b] and self.starts[b] < self.ends[a]

    def recovery_overlaps(self) -> int:
        """Recovery tasks whose wall interval overlapped a non-recovery
        task's interval on a different worker thread — the direct
        observation that recovery really ran off the critical path."""
        by_kind = self.plan.by_kind
        workers = self.workers
        others = [i for kind, indices in by_kind.items()
                  if kind is not TaskKind.RECOVERY for i in indices]
        return sum(
            any(workers[o] != workers[r] and self._overlap(r, o)
                for o in others)
            for r in by_kind.get(TaskKind.RECOVERY, ()))

    def recovery_halo_overlaps(self) -> int:
        """Recovery tasks whose measured wall interval overlapped a
        communication task's interval (the re-enacted halo exchange of
        the ranks placement) — the paper's asynchrony claim at
        distributed scale, observed directly."""
        by_kind = self.plan.by_kind
        comm = by_kind.get(TaskKind.COMMUNICATION, ())
        return sum(any(self._overlap(r, c) for c in comm)
                   for r in by_kind.get(TaskKind.RECOVERY, ()))

    def measured_breakdown(self, num_workers: int) -> StateBreakdown:
        """Per-state wall-clock accounting of the real execution,
        mirroring the simulated :class:`StateBreakdown` of Table 3 (the
        same kind-to-state accounting, with no runtime overhead)."""
        return ExecutionTrace.from_spans(
            ((end - start, 0.0, kind) for start, end, kind
             in zip(self.starts, self.ends, self.plan.kinds, strict=True)),
            num_workers=num_workers, start=0.0,
            end=self.wall_time).breakdown


class ExecutionBackend(abc.ABC):
    """Common contract of the simulated and threaded graph executors.

    Both backends share one deterministic :class:`ListScheduler`, so the
    *simulated* timeline (makespans, point times, traces) is bit-identical
    whichever backend a solver is configured with; they differ only in
    whether task actions additionally execute concurrently for real.
    """

    name: str = "abstract"

    def __init__(self, num_workers: int,
                 cost_model: CostModel = DEFAULT_COST_MODEL):
        self.num_workers = int(num_workers)
        self.cost_model = cost_model
        self.scheduler = ListScheduler(num_workers, cost_model=cost_model)

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
        return self.scheduler.run(graph, start_time=start_time)

    @abc.abstractmethod
    def execute(self, graph: Union[TaskGraph, IterationPlan],
                actions: Optional[Sequence[Optional[Callable]]] = None,
                durations: Optional[Sequence[float]] = None
                ) -> ExecutionResult:
        """Execute a plan's task bodies and measure their wall intervals
        — the re-enactment's entry point; the simulated timeline is the
        caller's (:meth:`simulate`).

        A compiled :class:`IterationPlan` runs ``actions`` (plan order,
        ``None`` for a task without a body) with ``durations`` in place
        of its base durations; a :class:`TaskGraph` is compiled and
        brings its tasks' own actions and durations.
        """

    @staticmethod
    def _bind(graph: Union[TaskGraph, IterationPlan],
              actions: Optional[Sequence[Optional[Callable]]],
              durations: Optional[Sequence[float]]
              ) -> Tuple[IterationPlan, Sequence[Optional[Callable]],
                         Sequence[float]]:
        """Resolve :meth:`execute`'s arguments into a validated ``(plan,
        actions, durations)``.  Compiling a graph validates it and runs
        the opt-in ``REPRO_VERIFY_GRAPHS=1`` assertion."""
        if isinstance(graph, IterationPlan):
            if actions is None:
                actions = (None,) * len(graph)
            elif len(actions) != len(graph):
                raise ValueError(f"plan has {len(graph)} tasks, got "
                                 f"{len(actions)} actions")
            return graph, actions, graph.checked_durations(durations)
        if actions is not None or durations is not None:
            raise ValueError("actions and durations run a compiled "
                             "IterationPlan; a TaskGraph carries its own")
        plan = compile_plan(graph)
        return plan, [task.action for task in graph.tasks], plan.durations

    def close(self) -> None:
        """Release any real resources (worker threads); idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SimulatedBackend(ExecutionBackend):
    """The discrete-event backend: time plans, replay actions serially."""

    name = "simulated"

    def execute(self, graph: Union[TaskGraph, IterationPlan],
                actions: Optional[Sequence[Optional[Callable]]] = None,
                durations: Optional[Sequence[float]] = None
                ) -> ExecutionResult:
        """Serial measured replay (the ``list`` scheduler's ``wall`` clock).

        Actions run back-to-back in the scheduler's launch order on the
        calling thread, each with a measured wall interval on worker 0.
        Nothing overlaps by construction — this is the serialised
        baseline the threaded scheduler's measured overlap is compared
        against.  The list schedule derives the launch order only; its
        timing is discarded.
        """
        plan, actions, durations = self._bind(graph, actions, durations)
        order = self.simulate(plan, durations=durations).launch_order
        total = len(plan)
        result = ExecutionResult(plan=plan,
                                 starts=[0.0] * total, ends=[0.0] * total,
                                 workers=[0] * total, results=[None] * total)
        starts, ends, results = result.starts, result.ends, result.results
        t0 = time.perf_counter()  # repro-lint: allow[wall-clock] measured serial intervals, reported not fingerprinted
        for i in order:
            action = actions[i]
            starts[i] = time.perf_counter() - t0  # repro-lint: allow[wall-clock] measured serial intervals, reported not fingerprinted
            if action is not None:
                results[i] = action()
            ends[i] = time.perf_counter() - t0  # repro-lint: allow[wall-clock] measured serial intervals, reported not fingerprinted
        if order:
            result.wall_time = ends[order[-1]] - starts[order[0]]
        return result
