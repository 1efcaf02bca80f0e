"""Execution traces and per-state time accounting.

Table 3 of the paper reports, for FEIR and AFEIR, the *increase of time
spent per state* relative to the ideal CG, where the states are:

* **useful** — executing solver tasks,
* **runtime** — creating and scheduling tasks,
* **imbalance** (idle) — workers waiting for work.

The trace records, for each worker, the intervals occupied by tasks and
their runtime overheads over the schedule's time span; everything else
is idle time.  Traces from successive iterations can be accumulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence

from repro.runtime.task import ScheduledTask, TaskKind


#: The states a task's work (occupied time minus runtime overhead) is
#: charged to, and the index of the one each :class:`TaskKind` feeds.
WORK_STATES = ("useful", "recovery", "checkpoint", "communication")
WORK_STATE = {TaskKind.COMPUTE: 0, TaskKind.REDUCTION: 0, TaskKind.RECOVERY: 1,
              TaskKind.CHECKPOINT: 2, TaskKind.COMMUNICATION: 3}


@dataclass
class StateBreakdown:
    """Aggregate worker-seconds per state."""

    useful: float = 0.0
    runtime: float = 0.0
    idle: float = 0.0
    recovery: float = 0.0
    checkpoint: float = 0.0
    communication: float = 0.0

    @property
    def total(self) -> float:
        return (self.useful + self.runtime + self.idle + self.recovery
                + self.checkpoint + self.communication)

    def fractions(self) -> Dict[str, float]:
        """Each state as a fraction of total worker-seconds."""
        total = self.total
        if total <= 0:
            return {k: 0.0 for k in
                    ("useful", "runtime", "idle", "recovery", "checkpoint",
                     "communication")}
        return {
            "useful": self.useful / total,
            "runtime": self.runtime / total,
            "idle": self.idle / total,
            "recovery": self.recovery / total,
            "checkpoint": self.checkpoint / total,
            "communication": self.communication / total,
        }

    def add(self, other: "StateBreakdown") -> None:
        self.useful += other.useful
        self.runtime += other.runtime
        self.idle += other.idle
        self.recovery += other.recovery
        self.checkpoint += other.checkpoint
        self.communication += other.communication


@dataclass
class ExecutionTrace:
    """Per-state accounting over one or more schedules."""

    num_workers: int
    breakdown: StateBreakdown = field(default_factory=StateBreakdown)
    wall_time: float = 0.0
    task_count: int = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_schedule(cls, scheduled: Iterable[ScheduledTask], *,
                      num_workers: int, start: float, end: float) -> "ExecutionTrace":
        """Build a trace from one schedule covering ``[start, end]``: a
        task holds its worker for its duration, overhead included."""
        runtime = busy = 0.0
        work = [0.0] * len(WORK_STATES)
        count = 0
        for st in scheduled:
            count += 1
            runtime += st.overhead
            busy += st.duration
            work[WORK_STATE[st.kind]] += st.duration - st.overhead
        return cls.from_sums(work, runtime, busy, count,
                             num_workers=num_workers, start=start, end=end)

    @classmethod
    def from_sums(cls, work: Sequence[float], runtime: float, busy: float, count: int,
                  *, num_workers: int, start: float, end: float) -> "ExecutionTrace":
        """The trace of ``count`` tasks from their sums (``work`` by state)."""
        span = max(end - start, 0.0)
        useful, recovery, checkpoint, communication = work  # WORK_STATES
        return cls(num_workers, StateBreakdown(
            useful, runtime, max(num_workers * span - busy, 0.0), recovery,
            checkpoint, communication), span, count)

    # ------------------------------------------------------------------
    def accumulate(self, other: "ExecutionTrace") -> None:
        """Merge another trace (e.g. the next iteration) into this one."""
        if other.num_workers != self.num_workers:
            raise ValueError("cannot merge traces with different worker counts")
        self.breakdown.add(other.breakdown)
        self.wall_time += other.wall_time
        self.task_count += other.task_count
