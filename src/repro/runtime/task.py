"""Task descriptions for the data-flow runtime."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, List


class TaskKind(enum.Enum):
    """Classification of a task, used for trace accounting.

    The paper's Table 3 splits execution time into *useful* work (solver
    kernels), *runtime* work (task creation/scheduling) and *idle* time
    (load imbalance).  Recovery tasks are tracked separately so we can
    also report how much time recovery itself takes.
    """

    COMPUTE = "compute"        # solver kernels: spmv, axpy, dot blocks
    REDUCTION = "reduction"    # scalar tasks (alpha, beta, epsilon)
    RECOVERY = "recovery"      # r1/r2/r3 recovery tasks
    CHECKPOINT = "checkpoint"  # checkpoint write / rollback read
    COMMUNICATION = "comm"     # halo exchange / MPI reduction legs


@dataclass
class Task:
    """One schedulable unit of work.

    Attributes
    ----------
    name:
        Unique name within its graph (e.g. ``"q[3]"``).
    duration:
        Time the task occupies a worker, excluding runtime overhead.
    kind:
        Category used in trace accounting.
    priority:
        Larger runs earlier among ready tasks.  The paper schedules
        recovery tasks "with a lower priority as to start all reduction
        tasks first" (Section 3.3.2); we reproduce that with priorities.
    reads / writes:
        Declared resource access, for the structural happens-before
        check (:func:`repro.runtime.graph.verify_graph`) and the
        sanitizer's access bridge.  Resources are opaque strings —
        vector segments (``"seg:g[2]"``), scalars (``"scalar:alpha"``),
        reduction partials (``"part:rho[0]"``) — and two tasks touching
        the same resource with at least one write must be ordered by a
        dependency path.  Tasks that declare nothing are exempt (e.g.
        read-only recovery probes that may deliberately overlap the
        reduction).

    A task has no body: what runs is the action table handed to an
    execution backend with the compiled plan.
    """

    name: str
    duration: float
    kind: TaskKind = TaskKind.COMPUTE
    priority: int = 0
    deps: List[str] = field(default_factory=list)
    reads: FrozenSet[str] = frozenset()
    writes: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"task {self.name!r} has negative duration")
        self.reads = frozenset(self.reads)
        self.writes = frozenset(self.writes)


@dataclass(frozen=True)
class ScheduledTask:
    """Placement of a task produced by the scheduler."""

    name: str
    worker: int
    start: float
    end: float
    kind: TaskKind
    overhead: float = 0.0
    #: Launch sequence number assigned by the scheduler.  Tasks that start
    #: at the same simulated time are ordered by ``seq`` everywhere (trace,
    #: action replay), so the two views can never disagree.
    seq: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start
