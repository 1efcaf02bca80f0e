"""Deterministic priority list scheduler over ``P`` workers.

This is the discrete-event core of the OmpSs stand-in.  It executes a
compiled :class:`~repro.runtime.plan.IterationPlan` (or a
:class:`~repro.runtime.graph.TaskGraph`, compiled on the way in) on a
fixed number of workers using a work-conserving greedy policy:

* a task becomes *ready* when all its dependencies have finished;
* whenever a worker is free and ready tasks exist, the highest-priority
  ready task (ties broken by readiness time, then insertion order) is
  started on that worker;
* starting a task charges the per-task runtime overhead of the cost
  model on that worker, in addition to the task's duration.

The scheduler only times; task ``action`` callables are replayed by an
execution backend, in the ``launch_order`` the schedule reports, so
numerical side effects observe the same ordering the schedule implies.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence

from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.runtime.graph import TaskGraph
from repro.runtime.plan import IterationPlan, compile_plan
from repro.runtime.task import ScheduledTask
from repro.runtime.trace import ExecutionTrace


@dataclass
class ScheduleResult:
    """Outcome of scheduling one plan: placements as arrays in plan order.

    ``starts``/``ends``/``workers`` are indexed like the plan's tasks;
    the name-keyed views (``scheduled``, ``start_of`` ...) are derived on
    demand, so re-timing a plan never pays for them.
    """

    plan: IterationPlan
    makespan: float
    starts: List[float]
    ends: List[float]
    workers: List[int]
    #: Task indices in the exact order the scheduler launched them.  This
    #: is the order action replay uses and ``order_started()`` reports,
    #: so the trace and the numerical replay can never disagree.
    launch_order: List[int]
    trace: ExecutionTrace
    num_workers: int
    start_time: float = 0.0
    overhead: float = 0.0

    @cached_property
    def scheduled(self) -> Dict[str, ScheduledTask]:
        """Per-task placements by name, in launch order (``seq`` is the
        launch sequence number)."""
        names, kinds = self.plan.names, self.plan.kinds
        return {names[i]: ScheduledTask(
                    name=names[i], worker=self.workers[i],
                    start=self.starts[i], end=self.ends[i], kind=kinds[i],
                    overhead=self.overhead, seq=seq)
                for seq, i in enumerate(self.launch_order)}

    def start_of(self, name: str) -> float:
        return self.starts[self.plan.index(name)]

    def end_of(self, name: str) -> float:
        return self.ends[self.plan.index(name)]

    def order_started(self) -> List[str]:
        """Task names in launch order: by simulated start time, ties
        (equal start times) broken by launch sequence — the same
        tie-break the action replay uses — not by task name."""
        names = self.plan.names
        return [names[i] for i in self.launch_order]


class ListScheduler:
    """Greedy priority list scheduler (deterministic)."""

    def __init__(self, num_workers: int,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 charge_overhead: bool = True):
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        self.num_workers = int(num_workers)
        self.cost_model = cost_model
        self.charge_overhead = charge_overhead

    # ------------------------------------------------------------------
    def run(self, graph: TaskGraph,
            start_time: float = 0.0) -> ScheduleResult:
        """Compile ``graph`` (validation, cycle check) and time the plan."""
        return self.retime(compile_plan(graph), start_time=start_time)

    def retime(self, plan: IterationPlan,
               durations: Optional[Sequence[float]] = None,
               start_time: float = 0.0) -> ScheduleResult:
        """Schedule a compiled plan — the event loop of the runtime.

        ``durations`` (plan order) replaces the plan's base durations;
        negative entries are rejected on every call.  Ties are broken by
        ``(-priority, ready time, plan index)``.
        """
        total = len(plan)
        durations = plan.checked_durations(durations)
        priorities, successors = plan.priorities, plan.successors
        remaining_deps = list(plan.indegree)
        push, pop = heapq.heappush, heapq.heappop

        # ready heap: (-priority, ready_time, plan index)
        ready = [(-priorities[i], start_time, i) for i in plan.roots]
        heapq.heapify(ready)
        # worker availability heap: (free_time, worker_id)
        workers = [(start_time, w) for w in range(self.num_workers)]
        # event heap of task completions: (end_time, launch seq, index, worker)
        completions: List = []
        starts = [0.0] * total
        ends = [0.0] * total
        placed = [0] * total
        launch_order: List[int] = []
        now = start_time
        overhead = self.cost_model.task_overhead if self.charge_overhead else 0.0

        n_done = 0
        while n_done < total:
            # Launch as many ready tasks as there are free workers at `now`.
            while ready and workers and workers[0][0] <= now + 1e-18:
                free_time, worker = pop(workers)
                _, ready_time, i = pop(ready)
                begin = max(now, free_time, ready_time)
                end = begin + overhead + durations[i]
                starts[i] = begin
                ends[i] = end
                placed[i] = worker
                push(completions, (end, len(launch_order), i, worker))
                launch_order.append(i)
            if not completions:
                # No running tasks but not all done: either tasks are ready
                # and a worker frees later, or the graph is inconsistent.
                if not ready:
                    launched = set(launch_order)
                    missing = [plan.names[i] for i in range(total)
                               if i not in launched]
                    raise RuntimeError(
                        f"scheduler deadlock; unfinished tasks: {missing[:5]}")
                # Advance time to the next worker availability.
                now = workers[0][0]
                continue
            # Advance to next completion.
            end, _, i, worker = pop(completions)
            now = max(now, end)
            push(workers, (end, worker))
            n_done += 1
            for nxt in successors[i]:
                remaining_deps[nxt] -= 1
                if remaining_deps[nxt] == 0:
                    push(ready, (-priorities[nxt], end, nxt))

        makespan = max(ends, default=start_time)
        kinds = plan.kinds
        trace = ExecutionTrace.from_spans(
            ((ends[i] - starts[i], overhead, kinds[i]) for i in launch_order),
            num_workers=self.num_workers, start=start_time, end=makespan)
        return ScheduleResult(plan=plan, makespan=makespan - start_time,
                              starts=starts, ends=ends, workers=placed,
                              launch_order=launch_order, trace=trace,
                              num_workers=self.num_workers,
                              start_time=start_time, overhead=overhead)
