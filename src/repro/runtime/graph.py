"""Task graphs: tasks plus data-flow dependencies.

Besides construction and scheduling helpers, this module hosts the
structural happens-before verifier (:func:`verify_graph`): every pair of
tasks whose declared resource sets conflict (write/write or read/write
on the same page or vector segment) must be ordered by a dependency
path, otherwise the schedule is free to race them.  Set
``REPRO_VERIFY_GRAPHS=1`` to run the check whenever a graph is compiled
into a plan (:func:`~repro.runtime.plan.compile_plan`): once per
iteration shape, and on every graph handed to an execution backend.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.runtime.task import Task, TaskKind

#: Opt-in switch for the runtime happens-before assertion.
VERIFY_GRAPHS_ENV = "REPRO_VERIFY_GRAPHS"


class TaskGraph:
    """A DAG of :class:`~repro.runtime.task.Task` objects.

    Dependencies are stored by task name.  The graph validates that all
    referenced tasks exist and that no cycle is present before it is
    scheduled.
    """

    def __init__(self) -> None:
        self._tasks: Dict[str, Task] = {}

    # ------------------------------------------------------------------
    def add(self, task: Task) -> Task:
        """Insert a task; names must be unique within the graph."""
        if task.name in self._tasks:
            raise ValueError(f"duplicate task name {task.name!r}")
        self._tasks[task.name] = task
        return task

    def add_task(self, name: str, duration: float, *,
                 kind: TaskKind = TaskKind.COMPUTE, priority: int = 0,
                 deps: Iterable[str] = (), action=None,
                 page: Optional[int] = None,
                 reads: Iterable[str] = (),
                 writes: Iterable[str] = ()) -> Task:
        """Convenience constructor + insert."""
        task = Task(name=name, duration=duration, kind=kind,
                    priority=priority, action=action, page=page,
                    deps=list(deps), reads=frozenset(reads),
                    writes=frozenset(writes))
        return self.add(task)

    def task(self, name: str) -> Task:
        try:
            return self._tasks[name]
        except KeyError:
            raise KeyError(f"no task named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    def __len__(self) -> int:
        return len(self._tasks)

    @property
    def tasks(self) -> List[Task]:
        """All tasks in insertion order."""
        return list(self._tasks.values())

    def predecessors(self, name: str) -> List[str]:
        return list(self.task(name).deps)

    def successors(self, name: str) -> List[str]:
        return [t.name for t in self._tasks.values() if name in t.deps]

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check that all dependencies exist and the graph is acyclic."""
        for task in self._tasks.values():
            for dep in task.deps:
                if dep not in self._tasks:
                    raise ValueError(
                        f"task {task.name!r} depends on unknown task {dep!r}")
        self.topological_order()  # raises on cycles

    def topological_order(self) -> List[str]:
        """Kahn topological order; raises ``ValueError`` on a cycle."""
        indegree = {name: 0 for name in self._tasks}
        for task in self._tasks.values():
            for dep in task.deps:
                if dep in indegree:
                    indegree[task.name] += 1
        ready = deque(sorted(n for n, d in indegree.items() if d == 0))
        order: List[str] = []
        succ: Dict[str, List[str]] = {name: [] for name in self._tasks}
        for task in self._tasks.values():
            for dep in task.deps:
                succ[dep].append(task.name)
        while ready:
            name = ready.popleft()
            order.append(name)
            for nxt in succ[name]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    ready.append(nxt)
        if len(order) != len(self._tasks):
            remaining = sorted(set(self._tasks) - set(order))
            raise ValueError(f"task graph has a cycle involving {remaining[:5]}")
        return order

    # ------------------------------------------------------------------
    def critical_path_length(self) -> float:
        """Length of the longest dependency chain (infinite workers)."""
        finish: Dict[str, float] = {}
        for name in self.topological_order():
            task = self._tasks[name]
            start = max((finish[d] for d in task.deps if d in finish), default=0.0)
            finish[name] = start + task.duration
        return max(finish.values(), default=0.0)

    def total_work(self) -> float:
        """Sum of all task durations (one-worker lower bound)."""
        return sum(t.duration for t in self._tasks.values())

    def merge(self, other: "TaskGraph", link_from: Iterable[str] = (),
              link_to: Iterable[str] = ()) -> None:
        """Append ``other``'s tasks, optionally adding cross-graph edges.

        Every task named in ``link_to`` (from ``other``) gains a
        dependency on every task named in ``link_from`` (from ``self``).
        Used to chain per-iteration graphs when simulating several
        iterations as a single schedule.
        """
        for task in other.tasks:
            self.add(task)
        link_from = list(link_from)
        for name in link_to:
            self.task(name).depends_on(*link_from)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaskGraph(tasks={len(self._tasks)})"


# ----------------------------------------------------------------------
# structural happens-before verification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GraphRace:
    """An unordered conflicting pair found by :func:`find_races`."""

    task_a: str
    task_b: str
    resource: str
    access: str  # "write/write" or "read/write"

    def __str__(self) -> str:
        return (f"{self.access} conflict on {self.resource!r} between "
                f"{self.task_a!r} and {self.task_b!r} with no dependency path")


class GraphRaceError(ValueError):
    """Raised by :func:`verify_graph` when conflicting tasks are unordered."""

    def __init__(self, races: List[GraphRace]) -> None:
        self.races = list(races)
        head = "; ".join(str(r) for r in self.races[:3])
        more = f" (+{len(self.races) - 3} more)" if len(self.races) > 3 else ""
        super().__init__(
            f"task graph has {len(self.races)} unordered conflicting "
            f"pair(s): {head}{more}")


def find_races(graph: TaskGraph) -> List[GraphRace]:
    """All conflicting task pairs not ordered by a dependency path.

    Two tasks conflict when they touch the same declared resource (see
    :class:`~repro.runtime.task.Task`) and at least one writes it.  The
    check is *structural*: it inspects the DAG only, so it is
    scheduler-independent — if a pair is unordered here, some interleaving
    of some backend can race it, even if today's schedules happen not to.
    Tasks that declare no resources (and no page) are exempt; AFEIR's
    read-only recovery probes deliberately overlap the reduction.
    """
    graph.validate()
    order = graph.topological_order()
    index = {name: i for i, name in enumerate(order)}
    # ancestor bitsets: anc[i] has bit j set iff task j precedes task i
    anc: List[int] = [0] * len(order)
    for name in order:
        i = index[name]
        mask = 0
        for dep in graph.task(name).deps:
            j = index[dep]
            mask |= anc[j] | (1 << j)
        anc[i] = mask

    def ordered(a: str, b: str) -> bool:
        i, j = index[a], index[b]
        return bool(anc[i] >> j & 1) or bool(anc[j] >> i & 1)

    readers: Dict[str, List[str]] = {}
    writers: Dict[str, List[str]] = {}
    for task in graph.tasks:
        for res in task.reads:
            readers.setdefault(res, []).append(task.name)
        for res in task.resources_written():
            writers.setdefault(res, []).append(task.name)

    races: List[GraphRace] = []
    seen: set = set()

    def report(a: str, b: str, resource: str, access: str) -> None:
        a, b = sorted((a, b))
        key = (a, b, resource)
        if key not in seen:
            seen.add(key)
            races.append(GraphRace(a, b, resource, access))

    for resource, ws in writers.items():
        for i, a in enumerate(ws):
            for b in ws[i + 1:]:
                if a != b and not ordered(a, b):
                    report(a, b, resource, "write/write")
            for b in readers.get(resource, ()):
                if a != b and not ordered(a, b):
                    report(a, b, resource, "read/write")
    races.sort(key=lambda r: (r.resource, r.task_a, r.task_b))
    return races


def verify_graph(graph: TaskGraph) -> None:
    """Raise :class:`GraphRaceError` if the graph has unordered conflicts."""
    races = find_races(graph)
    if races:
        raise GraphRaceError(races)


def verification_enabled() -> bool:
    """True when ``REPRO_VERIFY_GRAPHS`` requests runtime verification."""
    return os.environ.get(VERIFY_GRAPHS_ENV, "").strip().lower() not in (
        "", "0", "false", "no")


def maybe_verify_graph(graph: TaskGraph) -> None:
    """Backend hook: verify only when the env knob is set."""
    if verification_enabled():
        verify_graph(graph)
