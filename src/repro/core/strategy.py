"""Recovery strategy interface shared by all five methods.

A strategy describes *what to do about lost pages* and *how its actions
appear in the task graph*.  The resilient solver owns the iteration
structure; strategies plug into it through a small number of hooks, so
adding a new recovery method does not require touching the solver.

The solver hands strategies a *solver state* object exposing (duck
typed, to avoid a circular dependency on the solver module):

``blocked``            the :class:`~repro.matrices.blocked.PageBlockedMatrix`
``b``                  the right-hand side array
``vectors``            mapping name -> :class:`~repro.memory.pages.PagedVector`
                       for ``x``, ``g``, ``q`` and the two ``d`` buffers
``memory``             the :class:`~repro.memory.manager.MemoryManager`
``residual_relation``  a :class:`~repro.core.relations.ResidualRelation`
``matvec_relation``    a :class:`~repro.core.relations.MatVecRelation`
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple


@dataclass
class RecoveryStats:
    """Counters accumulated by a strategy over one solve."""

    pages_recovered: int = 0
    pages_unrecoverable: int = 0
    contributions_skipped: int = 0
    restarts: int = 0
    rollbacks: int = 0
    checkpoints_written: int = 0
    recovery_work_time: float = 0.0


@dataclass
class RecoveryOutcome:
    """What happened when a strategy handled a batch of lost pages."""

    #: (vector, page) pairs whose exact contents were restored.
    recovered: List[Tuple[str, int]] = field(default_factory=list)
    #: (vector, page) pairs that could not be restored exactly (zero-filled).
    unrecoverable: List[Tuple[str, int]] = field(default_factory=list)
    #: True if the strategy requires the solver to restart (Lossy Restart).
    restart_required: bool = False
    #: True if the strategy rolled the iterate back (checkpoint method).
    rolled_back: bool = False
    #: Simulated time spent doing recovery work (charged to recovery tasks).
    work_time: float = 0.0


class RecoveryStrategy(abc.ABC):
    """Base class for the five resilience methods of the evaluation."""

    #: Human-readable method name used in results tables.
    name: str = "abstract"

    #: True if the method adds r1/r2/r3 recovery tasks to every iteration
    #: (FEIR and AFEIR do; signal-handler-only methods do not).
    uses_recovery_tasks: bool = False

    #: True if the recovery tasks are barriers in the critical path
    #: (FEIR); False if they are overlapped with reductions (AFEIR).
    recovery_in_critical_path: bool = False

    #: True if the method periodically writes checkpoints.
    uses_checkpoints: bool = False

    # ------------------------------------------------------------------
    # task-graph placement
    # ------------------------------------------------------------------
    @property
    def recovery_task_priority(self) -> int:
        """Scheduling priority of the r1/r2/r3 recovery tasks.

        The paper schedules overlapped (AFEIR) recovery "with a lower
        priority as to start all reduction tasks first" (Section 3.3.2);
        critical-path (FEIR) recovery runs at normal priority.
        """
        return 0 if self.recovery_in_critical_path else -1

    def vulnerable_pairs(self) -> List[Tuple[str, str]]:
        """(recovery task, dependent scalar task) role pairs of the
        iteration plan whose gap is the method's vulnerable window.

        Critical-path methods have no window (the scalar waits for
        recovery inside the critical path), so the default is empty;
        overlapped methods override this so the threaded backend's
        vulnerable-window monitor can measure the real gap.
        """
        return []

    def recovery_probe(self, memory, monitor) -> Callable[[], None]:
        """Real executable body of a recovery task for the re-enactment.

        The returned callable performs what the paper's recovery task does
        when executed: scan the protection bitmasks of every registered
        vector for lost pages, and report the count to the
        vulnerable-window ``monitor``.
        """
        def probe() -> None:
            monitor.record_scan(len(memory.lost_pages()))

        return probe

    # ------------------------------------------------------------------
    def on_solve_start(self, state) -> None:
        """Called once before the first iteration (e.g. initial checkpoint)."""

    @abc.abstractmethod
    def handle_lost_pages(self, state, lost: List[Tuple[str, int]],
                          iteration: int) -> RecoveryOutcome:
        """React to the detected loss of ``lost`` (vector, page) pairs.

        Implementations must leave every lost page either exactly
        restored, approximately restored or zero-filled, and report which
        happened through the returned :class:`RecoveryOutcome`.
        """

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """Summary of configuration, used in experiment manifests."""
        return {
            "name": self.name,
            "uses_recovery_tasks": self.uses_recovery_tasks,
            "recovery_in_critical_path": self.recovery_in_critical_path,
            "uses_checkpoints": self.uses_checkpoints,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
