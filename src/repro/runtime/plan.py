"""Compiled iteration plans: a task graph frozen into flat arrays.

A CG iteration's graph has one of a handful of *shapes* (resilient or
not, with or without a checkpoint task); between iterations only the
start time and a few recovery durations change.  :func:`compile_plan`
therefore pays for validation, the cycle check, the opt-in structural
race check and the name-to-index resolution **once** per shape and
freezes the result as an :class:`IterationPlan`.  The plan then has
three consumers, all reading its integer arrays directly: the list
scheduler *times* it
(:meth:`ListScheduler.retime <repro.runtime.scheduler.ListScheduler.retime>`
with a durations vector and a start time), the execution backends *run*
it (:meth:`ExecutionBackend.execute
<repro.runtime.backend.ExecutionBackend.execute>` with an action table
in plan order — the threaded dispatch loop walks ``successors`` /
``indegree`` / ``priorities``), and
:func:`~repro.runtime.graph.verify_graph` *checked* it at compile.  The
plan is the runtime's only input: neither the scheduler nor a backend
takes a graph.

Frozen: task order, integer dependencies/successors/indegrees/roots,
priorities, kinds, base durations, declared resources and the named
``roles`` (task indices the caller wants to look up without a name
dict).  Free per use: the durations vector, the start time and the
action table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import inf
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple, Union

from repro.runtime.graph import TaskGraph, maybe_verify_graph
from repro.runtime.task import Task, TaskKind
from repro.runtime.trace import WORK_STATE

#: A role resolves to one task index or, for a group of tasks, a tuple.
Role = Union[int, Tuple[int, ...]]


@dataclass(frozen=True)
class IterationPlan:
    """An immutable, validated task graph in index form.

    Index ``i`` everywhere refers to the ``i``-th task in the insertion
    order of the graph the plan was compiled from — the scheduler's
    final tie-break, which is why the order is part of the plan.
    """

    names: Tuple[str, ...]
    #: ``deps[i]``: indices ``i`` waits for, as listed (duplicates kept).
    deps: Tuple[Tuple[int, ...], ...]
    #: ``successors[i]``: one entry per dependency edge leaving ``i``.
    successors: Tuple[Tuple[int, ...], ...]
    indegree: Tuple[int, ...]
    roots: Tuple[int, ...]
    priorities: Tuple[int, ...]
    kinds: Tuple[TaskKind, ...]
    durations: Tuple[float, ...]
    #: The source tasks' declared ``(reads, writes)``: what the threaded
    #: executor bridges into the sanitizer's access records.
    resources: Tuple[Tuple[FrozenSet[str], FrozenSet[str]], ...]
    roles: Mapping[str, Role]

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no task named {name!r}") from None

    @cached_property
    def by_kind(self) -> Dict[TaskKind, Tuple[int, ...]]:
        """Task indices grouped by kind (the measured-side queries'
        replacement for a name-to-kind dict)."""
        groups: Dict[TaskKind, list] = {}
        for i, kind in enumerate(self.kinds):
            groups.setdefault(kind, []).append(i)
        return {kind: tuple(indices) for kind, indices in groups.items()}

    @cached_property
    def work_states(self) -> Tuple[int, ...]:
        """Each task's :data:`~repro.runtime.trace.WORK_STATES` index, in
        plan order (read by the scheduler and the measured side)."""
        return tuple(WORK_STATE[kind] for kind in self.kinds)

    def checked_durations(self, durations: Optional[Sequence[float]]
                          ) -> Sequence[float]:
        """``durations`` (plan order) or, for ``None``, the base
        durations; a wrong length or a negative or non-finite entry (a
        NaN leaves a heap's order undefined) is rejected on every use.
        The check runs at C speed: a NaN or an infinity makes the sum
        non-finite, a negative entry the minimum; only then does a loop
        look for the task to name (a finite sum that overflows finds
        none, and passes)."""
        if durations is None:
            return self.durations
        if len(durations) != len(self):
            raise ValueError(f"plan has {len(self)} tasks, got "
                             f"{len(durations)} durations")
        if durations and not (min(durations) >= 0.0
                              and sum(durations) < inf):
            for name, d in zip(self.names, durations, strict=True):
                if not 0.0 <= d < inf:
                    kind = "negative" if d < 0 else "non-finite"
                    raise ValueError(f"task {name!r} has {kind} duration")
        return durations


def compile_plan(graph: TaskGraph,
                 roles: Optional[Mapping[str, Union[str, Sequence[str]]]] = None
                 ) -> IterationPlan:
    """Validate ``graph`` and freeze it into an :class:`IterationPlan`.

    Raises ``ValueError`` for a dangling dependency, a cycle or a
    negative or non-finite duration, and (under ``REPRO_VERIFY_GRAPHS=1``)
    :class:`~repro.runtime.graph.GraphRaceError` for unordered
    conflicting accesses.  ``roles`` maps a role to a task name, or to a
    sequence of names for a group; it is stored resolved to indices.
    """
    graph.validate()
    maybe_verify_graph(graph)
    tasks: Sequence[Task] = graph.tasks
    index: Dict[str, int] = {task.name: i for i, task in enumerate(tasks)}
    deps = tuple(tuple(index[d] for d in task.deps) for task in tasks)
    successors: Tuple[list, ...] = tuple([] for _ in tasks)
    for i, task_deps in enumerate(deps):
        for d in task_deps:
            successors[d].append(i)
    resolved: Dict[str, Role] = {}
    for role, target in (roles or {}).items():
        resolved[role] = (index[target] if isinstance(target, str)
                          else tuple(index[name] for name in target))
    plan = IterationPlan(
        names=tuple(index),
        deps=deps,
        successors=tuple(tuple(s) for s in successors),
        indegree=tuple(len(d) for d in deps),
        roots=tuple(i for i, d in enumerate(deps) if not d),
        priorities=tuple(task.priority for task in tasks),
        kinds=tuple(task.kind for task in tasks),
        durations=tuple(task.duration for task in tasks),
        resources=tuple((task.reads, task.writes) for task in tasks),
        roles=resolved)
    plan.checked_durations(plan.durations)
    return plan
