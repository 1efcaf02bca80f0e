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

**Structure and replay.**  Recovery enlarges tasks; it rarely reorders
the schedule's events.  So the event loop
(:meth:`ListScheduler._discover`) returns no floats but a
:class:`_Structure` — launch order, each launch's *trigger* (the task
whose completion started it, ``-1`` for the start), worker column,
completion order, and whether each completion's end *tied* with the one
before (the first: with ``start_time``) — and one evaluator
(:meth:`ListScheduler._evaluate`) turns a structure, durations and a
start time into ``starts``, ``ends`` and trace, for the loop's fresh
structure and for one held from an earlier timing (a *replay*).  A
launch starts at ``ends[trigger]`` because in the loop worker free times
and task ready times are ends of completions already popped (or
``start_time``) and ``now + overhead + duration`` is never before
``now``: completions pop in non-decreasing order, and every launch
begins at ``now``, the end of the last one.

A replay is the loop's result bit for bit if its ends, walked in
completion order, reproduce every recorded ``<``/``==``
(:meth:`_Structure.holds`).  Induction over completion steps: if the
loop, run on these durations, has followed the record up to step ``k``,
every key its heaps compare is ``start_time`` or a step's end — worker
``(free time, id)``, ready ``(-priority, ready time, index)``, running
``(end, launch seq)`` — two steps compare ``==`` iff only ties lie
between them, as recorded, and the integers are the record's.  So it
launches the recorded tasks on the recorded workers and pops the
recorded step ``k + 1``: other running tasks end no earlier, and those
that tie with it tied when recorded, under the same sequence numbers.
``holds`` tests each relation positively, so a NaN fails it; when it
fails (an enlarged recovery task overtook a chunk, a tie broke under
translation) the loop runs and its structure replaces the held one.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.runtime.graph import TaskGraph
from repro.runtime.plan import IterationPlan, compile_plan
from repro.runtime.task import ScheduledTask
from repro.runtime.trace import WORK_STATE, WORK_STATES, ExecutionTrace


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


class _Structure(NamedTuple):
    """The event loop's decisions for one plan: no float, so replayable."""

    plan: IterationPlan  # referenced, so the ``id()`` it is held by is its own
    launches: Tuple[Tuple[int, int, int], ...]  # (task, trigger, work state)
    workers: Tuple[int, ...]  # plan order
    completions: Tuple[Tuple[int, bool], ...]  # (task, tied)

    def holds(self, ends: Sequence[float], start_time: float) -> bool:
        """True iff ``ends`` order the completions as recorded."""
        prev = start_time
        for i, tied in self.completions:
            if not (ends[i] == prev if tied else ends[i] > prev):
                return False
            prev = ends[i]
        return True


class ListScheduler:
    """Greedy priority list scheduler (deterministic)."""

    def __init__(self, num_workers: int,
                 cost_model: CostModel = DEFAULT_COST_MODEL):
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        self.num_workers = int(num_workers)
        self.cost_model = cost_model
        #: The last structure the loop produced, by ``(id(plan), workers)``.
        #: Whoever keeps plans beyond one scheduler may put the table it
        #: keeps with them here: a structure holds its plan, so the
        #: ``id()`` neither dangles nor aliases, and a replay is checked
        #: (``holds``) wherever the structure came from.
        self.structures: Dict[Tuple[int, int], _Structure] = {}
        #: Evidence for tests only: how often the loop ran / was replayed.
        self.loop_runs = self.replays = 0

    # ------------------------------------------------------------------
    def run(self, graph: TaskGraph,
            start_time: float = 0.0) -> ScheduleResult:
        """Compile ``graph`` (validation, cycle check) and time the plan
        with the event loop; a one-off plan's structure is not held."""
        plan = compile_plan(graph)
        return self._evaluate(self._discover(plan, plan.durations, start_time),
                              plan.durations, start_time)

    def retime(self, plan: IterationPlan,
               durations: Optional[Sequence[float]] = None,
               start_time: float = 0.0) -> ScheduleResult:
        """Schedule a compiled plan: replay the structure held for it or
        (the first time, and when the replay's check fails) run the event
        loop and hold the structure it returns.  ``durations`` (plan
        order) replaces the plan's base durations; negative and non-finite
        entries are rejected on every call.  Ties are broken by
        ``(-priority, ready time, plan index)``."""
        durations = plan.checked_durations(durations)
        key = (id(plan), self.num_workers)
        held = self.structures.get(key)
        if held is not None:
            result = self._evaluate(held, durations, start_time)
            if held.holds(result.ends, start_time):
                self.replays += 1
                return result
        held = self.structures[key] = self._discover(plan, durations, start_time)
        return self._evaluate(held, durations, start_time)

    def _discover(self, plan: IterationPlan, durations: Sequence[float],
                  start_time: float) -> _Structure:
        """The event loop of the runtime: list-schedule ``plan`` and
        return the decisions taken (its floats only order the heaps)."""
        self.loop_runs += 1
        priorities, successors = plan.priorities, plan.successors
        remaining_deps = list(plan.indegree)
        push, pop = heapq.heappush, heapq.heappop
        overhead = self.cost_model.task_overhead

        # ready heap: (-priority, ready_time, plan index)
        ready = [(-priorities[i], start_time, i) for i in plan.roots]
        heapq.heapify(ready)
        # worker availability heap: (free_time, worker_id)
        workers = [(start_time, w) for w in range(self.num_workers)]
        # event heap of task completions: (end_time, launch seq, index, worker)
        running, launches, completions = [], [], []
        placed = [-1] * len(plan)
        now, trigger = start_time, -1

        while len(completions) < len(placed):
            # Launch as many ready tasks as there are (free) workers queued.
            while ready and workers:
                _, worker = pop(workers)
                _, _, i = pop(ready)
                placed[i] = worker
                push(running, (now + overhead + durations[i], len(launches),
                               i, worker))
                launches.append((i, trigger, WORK_STATE[plan.kinds[i]]))
            if not running:  # every worker is free and nothing is ready
                missing = [plan.names[i] for i, w in enumerate(placed) if w < 0]
                raise RuntimeError(
                    f"scheduler deadlock; unfinished tasks: {missing[:5]}")
            end, _, trigger, worker = pop(running)
            completions.append((trigger, end == now))
            now = end
            push(workers, (end, worker))
            for nxt in successors[trigger]:
                remaining_deps[nxt] -= 1
                if remaining_deps[nxt] == 0:
                    push(ready, (-priorities[nxt], end, nxt))
        return _Structure(plan, tuple(launches), tuple(placed),
                          tuple(completions))

    def _evaluate(self, structure: _Structure, durations: Sequence[float],
                  start_time: float) -> ScheduleResult:
        """The schedule ``structure`` implies: the one site of the timeline's
        arithmetic (trace sums as :meth:`ExecutionTrace.from_spans` adds them)."""
        plan, overhead = structure.plan, self.cost_model.task_overhead
        starts = [start_time] * len(plan)
        ends = [start_time] * (len(plan) + 1)  # [-1]: the start, trigger -1
        work = [0.0] * len(WORK_STATES)
        runtime = busy = 0.0
        for i, trigger, state in structure.launches:
            starts[i] = begin = ends[trigger]
            ends[i] = end = begin + overhead + durations[i]
            occupied = end - begin
            runtime += overhead
            busy += occupied
            work[state] += occupied - overhead
        del ends[-1]
        makespan = max(ends, default=start_time)
        trace = ExecutionTrace.from_sums(
            work, runtime, busy, len(plan), num_workers=self.num_workers,
            start=start_time, end=makespan)
        return ScheduleResult(
            plan=plan, makespan=makespan - start_time, starts=starts,
            ends=ends, workers=list(structure.workers),
            launch_order=[launch[0] for launch in structure.launches],
            trace=trace, num_workers=self.num_workers,
            start_time=start_time, overhead=overhead)
