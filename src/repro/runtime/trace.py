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
from typing import Dict, Iterable, Sequence, Tuple

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

    def increase_over(self, baseline: "StateBreakdown") -> Dict[str, float]:
        """Percentage-point increase of each state share vs a baseline.

        This is the quantity reported in Table 3: how much larger the
        share of time spent idle / in the runtime / doing useful work is
        for a resilient run compared to the ideal run.
        """
        mine = self.fractions()
        base = baseline.fractions()
        return {key: 100.0 * (mine[key] - base[key]) for key in mine}


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
        """Build a trace from one schedule covering ``[start, end]``."""
        return cls.from_spans(((st.duration, st.overhead, st.kind)
                               for st in scheduled),
                              num_workers=num_workers, start=start, end=end)

    @classmethod
    def from_spans(cls, spans: Iterable[Tuple[float, float, TaskKind]], *,
                   num_workers: int, start: float, end: float) -> "ExecutionTrace":
        """Build a trace from ``(occupied, overhead, kind)`` per task.

        ``occupied`` is the time the task held its worker (overhead
        included).  The sums run in iteration order, so callers that need
        bit-reproducible breakdowns pass spans in launch order.
        """
        runtime = busy = 0.0
        work = [0.0] * len(WORK_STATES)
        count = 0
        for occupied, overhead, kind in spans:
            count += 1
            runtime += overhead
            busy += occupied
            work[WORK_STATE[kind]] += occupied - overhead
        return cls.from_sums(work, runtime, busy, count,
                             num_workers=num_workers, start=start, end=end)

    @classmethod
    def from_sums(cls, work: Sequence[float], runtime: float, busy: float, count: int,
                  *, num_workers: int, start: float, end: float) -> "ExecutionTrace":
        """The trace of ``count`` tasks from their sums (``work`` by state)."""
        span = max(end - start, 0.0)
        return cls(num_workers=num_workers, wall_time=span, task_count=count,
                   breakdown=StateBreakdown(
                       runtime=runtime,
                       idle=max(num_workers * span - busy, 0.0),
                       **dict(zip(WORK_STATES, work, strict=True))))

    # ------------------------------------------------------------------
    def accumulate(self, other: "ExecutionTrace") -> None:
        """Merge another trace (e.g. the next iteration) into this one."""
        if other.num_workers != self.num_workers:
            raise ValueError("cannot merge traces with different worker counts")
        self.breakdown.add(other.breakdown)
        self.wall_time += other.wall_time
        self.task_count += other.task_count

    def copy(self) -> "ExecutionTrace":
        out = ExecutionTrace(num_workers=self.num_workers,
                             wall_time=self.wall_time,
                             task_count=self.task_count)
        out.breakdown.add(self.breakdown)
        return out

    def utilization(self) -> float:
        """Fraction of worker-seconds spent doing anything but idling."""
        total = self.breakdown.total
        if total <= 0:
            return 0.0
        return 1.0 - self.breakdown.idle / total
