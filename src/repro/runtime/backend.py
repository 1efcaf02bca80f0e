"""Execution backends: one compiled-plan contract, two ways to run it.

The discrete-event :class:`~repro.runtime.scheduler.ListScheduler` answers
*"how long would this plan take on P workers?"* deterministically; the
threaded backend (:mod:`repro.runtime.async_exec`) answers *"what happens
when the same plan actually runs concurrently?"*.  Both sit behind the
:class:`ExecutionBackend` protocol so the solver runs on either one; the
runtime's scheduler axis (:func:`repro.runtime.runtime.make_executor`)
picks:

* ``simulated`` (scheduler ``"list"``) — time plans with the list
  scheduler; :meth:`~ExecutionBackend.execute` replays the action table
  sequentially in launch order.  Deterministic, zero concurrency.
* ``threaded`` (scheduler ``"threaded"``) — the same list scheduler for
  the *simulated* timeline (keeping every clock-dependent decision
  bit-identical to the simulated backend); ``execute`` runs the plan for
  real on a pool of worker threads: dependency-tracked dispatch,
  priority ordering, measured wall-clock intervals per task.

Both halves take a compiled :class:`~repro.runtime.plan.IterationPlan`
and nothing else: ``simulate`` re-times it with a durations vector,
``execute`` runs it with an action table, and the measured side comes
back as an :class:`ExecutionResult` of plan-order columns.  A solve's
measured side is the :class:`ExecutionFold` of its runs' results.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.runtime.plan import IterationPlan
from repro.runtime.scheduler import ListScheduler, ScheduleResult
from repro.runtime.task import TaskKind
from repro.runtime.trace import WORK_STATES, ExecutionTrace, StateBreakdown


@dataclass
class ExecutionResult:
    """Measured execution of one plan: columns in plan order.

    ``starts``/``ends`` (run-relative seconds) and ``workers`` are
    indexed like the plan's tasks; ``wall_time`` is the span from the
    first start to the last end.
    """

    plan: IterationPlan
    starts: List[float]
    ends: List[float]
    workers: List[int]
    wall_time: float = 0.0

    @classmethod
    def blank(cls, plan: IterationPlan) -> "ExecutionResult":
        """Zeroed columns for ``plan``, for a backend to fill."""
        total = len(plan)
        return cls(plan, [0.0] * total, [0.0] * total, [0] * total)

    # -- measured-execution queries -------------------------------------
    def recovery_overlaps(self) -> int:
        """Recovery tasks whose wall interval overlapped a non-recovery
        task's interval on a different worker thread — the direct
        observation that recovery really ran off the critical path."""
        columns = self.starts, self.ends, self.workers, self.plan.kinds
        found = 0
        for r in self.plan.by_kind.get(TaskKind.RECOVERY, ()):
            begin, end, worker, _ = (column[r] for column in columns)
            for o_begin, o_end, o_worker, kind in zip(*columns):
                if (o_begin < end and begin < o_end and o_worker != worker
                        and kind is not TaskKind.RECOVERY):
                    found += 1
                    break
        return found

    def recovery_halo_overlaps(self) -> int:
        """Recovery tasks whose measured wall interval overlapped a
        communication task's interval (the re-enacted halo exchange of
        the ranks placement) — the paper's asynchrony claim at
        distributed scale, observed directly."""
        by_kind, starts, ends = self.plan.by_kind, self.starts, self.ends
        comm = by_kind.get(TaskKind.COMMUNICATION, ())
        return sum(any(starts[r] < ends[c] and starts[c] < ends[r]
                       for c in comm)
                   for r in by_kind.get(TaskKind.RECOVERY, ()))

    def measured_breakdown(self, num_workers: int) -> StateBreakdown:
        """Per-state wall-clock accounting of the real execution,
        mirroring the simulated :class:`StateBreakdown` of Table 3 (the
        same kind-to-state accounting, with no runtime overhead)."""
        work = [0.0] * len(WORK_STATES)
        busy = 0.0
        for start, end, state in zip(self.starts, self.ends,
                                     self.plan.work_states, strict=True):
            busy += end - start
            work[state] += end - start
        return ExecutionTrace.from_sums(
            work, 0.0, busy, len(self.plan), num_workers=num_workers,
            start=0.0, end=self.wall_time).breakdown


@dataclass
class ExecutionFold:
    """A solve's measured side: the in-order fold of the
    :class:`ExecutionResult` of each of its runs, fed by the thread that
    executes them.

    Every run counts, and so does each of its recovery tasks:
    ``execute`` returns only once every task's body ran, and a recovery
    scan finds no lost page to report (every loss is repaired at its
    check point before the iteration is re-enacted).  The rest is
    measured on the wall clock and folded only where that is an output
    (``wall``): real overlaps, the vulnerable windows and the measured
    per-state :attr:`trace`.
    """

    #: Lanes a run's measured breakdown spreads its wall time over.
    threads: int
    #: Whether the wall side is an output (the ``wall`` clock).
    wall: bool = True
    runs: int = 0
    recovery_scans: int = 0
    overlapped_recoveries: int = 0
    #: Recovery tasks whose measured interval overlapped the re-enacted
    #: halo exchange of the ranks placement (0 without a halo task, and
    #: structurally 0 for FEIR, whose recovery barriers the reduction).
    halo_overlapped_recoveries: int = 0
    windows: int = 0
    total_window: float = 0.0
    #: Measured per-state accounting, summed in run order; ``None``
    #: until a run's wall side is folded.
    trace: Optional[ExecutionTrace] = None

    def add(self, result: ExecutionResult,
            pairs: Sequence[Tuple[int, int]] = ()) -> None:
        """Fold one run.  ``pairs`` are the ``(recovery, scalar)`` plan
        indices whose measured gap, where positive, is a vulnerable
        window."""
        self.runs += 1
        self.recovery_scans += len(
            result.plan.by_kind.get(TaskKind.RECOVERY, ()))
        if not self.wall:
            return
        self.overlapped_recoveries += result.recovery_overlaps()
        self.halo_overlapped_recoveries += result.recovery_halo_overlaps()
        for recovery, scalar in pairs:
            window = result.starts[scalar] - result.ends[recovery]
            if window > 0.0:
                self.windows += 1
                self.total_window += window
        trace = self.trace
        if trace is None:
            trace = self.trace = ExecutionTrace(self.threads)
        trace.breakdown.add(result.measured_breakdown(self.threads))
        trace.wall_time += result.wall_time
        trace.task_count += len(result.plan)

    def summary(self) -> Dict[str, object]:
        """The counts, with the mean window and whether recovery
        measurably ran while other tasks ran."""
        return {
            "runs": self.runs,
            "recovery_scans": self.recovery_scans,
            "overlapped_recoveries": self.overlapped_recoveries,
            "halo_overlapped_recoveries": self.halo_overlapped_recoveries,
            "windows": self.windows,
            "total_window": self.total_window,
            "mean_window": (self.total_window / self.windows
                            if self.windows else 0.0),
            "concurrency_observed": self.overlapped_recoveries > 0,
        }


class ExecutionBackend(abc.ABC):
    """Common contract of the simulated and threaded plan executors.

    Both backends share one deterministic :class:`ListScheduler`, so the
    *simulated* timeline (makespans, point times, traces) is bit-identical
    whichever backend a solver is configured with; they differ only in
    whether task actions additionally execute concurrently for real.
    """

    name: str = "abstract"
    #: Real threads :meth:`execute` runs a plan's tasks on: the workers a
    #: measured breakdown spreads the wall time over.
    thread_count: int

    def __init__(self, num_workers: int,
                 cost_model: CostModel = DEFAULT_COST_MODEL):
        self.num_workers = int(num_workers)
        self.cost_model = cost_model
        self.scheduler = ListScheduler(num_workers, cost_model=cost_model)

    # ------------------------------------------------------------------
    def simulate(self, plan: IterationPlan, start_time: float = 0.0,
                 durations: Optional[Sequence[float]] = None
                 ) -> ScheduleResult:
        """Timing-only pass: re-time ``plan`` from ``start_time`` with
        ``durations`` (plan order) in place of its base durations."""
        return self.scheduler.retime(plan, durations, start_time)

    @abc.abstractmethod
    def execute(self, plan: IterationPlan,
                actions: Optional[Sequence[Optional[Callable]]] = None,
                durations: Optional[Sequence[float]] = None
                ) -> ExecutionResult:
        """Run ``actions`` (plan order, ``None`` for a task without a
        body) with ``durations`` in place of the plan's base durations,
        and measure every task's wall interval — the re-enactment's
        entry point; the simulated timeline is the caller's
        (:meth:`simulate`)."""

    @staticmethod
    def _bind(plan: IterationPlan,
              actions: Optional[Sequence[Optional[Callable]]],
              durations: Optional[Sequence[float]]
              ) -> Tuple[Sequence[Optional[Callable]], Sequence[float]]:
        """:meth:`execute`'s ``actions`` and ``durations``, checked
        against ``plan``."""
        if actions is None:
            actions = (None,) * len(plan)
        elif len(actions) != len(plan):
            raise ValueError(f"plan has {len(plan)} tasks, got "
                             f"{len(actions)} actions")
        return actions, plan.checked_durations(durations)

    def close(self) -> None:
        """Release any real resources (worker threads); idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SimulatedBackend(ExecutionBackend):
    """The discrete-event backend: time plans, replay actions serially."""

    name = "simulated"
    thread_count = 1

    def execute(self, plan: IterationPlan,
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
        actions, durations = self._bind(plan, actions, durations)
        order = self.simulate(plan, durations=durations).launch_order
        result = ExecutionResult.blank(plan)
        starts, ends = result.starts, result.ends
        t0 = time.perf_counter()  # repro-lint: allow[wall-clock] measured serial intervals, reported not fingerprinted
        for i in order:
            action = actions[i]
            starts[i] = time.perf_counter() - t0  # repro-lint: allow[wall-clock] measured serial intervals, reported not fingerprinted
            if action is not None:
                action()
            ends[i] = time.perf_counter() - t0  # repro-lint: allow[wall-clock] measured serial intervals, reported not fingerprinted
        if order:
            result.wall_time = ends[order[-1]] - starts[order[0]]
        return result
