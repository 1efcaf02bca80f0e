"""Recovery strategy interface shared by all five methods.

A strategy describes *what to do about lost pages* and *how its actions
appear in the task graph*.  The resilient solver owns the iteration
structure; strategies plug into it through a small number of hooks: the
two scheduling flags below, :meth:`RecoveryStrategy.on_solve_start` and
:meth:`RecoveryStrategy.handle_lost_pages`.  Checkpointing is the one
method the solver and its planner also know by type (they configure its
interval, add its checkpoint task and save its checkpoints), so a new
method that needs periodic work of its own does touch the solver.

The solver hands strategies a *solver state* object exposing (duck
typed, to avoid a circular dependency on the solver module):

``blocked``            the :class:`~repro.matrices.blocked.PageBlockedMatrix`
``b``                  the right-hand side array
``vectors``            mapping name -> :class:`~repro.memory.pages.PagedVector`
                       for ``x``, ``g``, ``q`` and the two ``d`` buffers
``memory``             the :class:`~repro.memory.manager.MemoryManager`
``residual_relation``  a :class:`~repro.core.relations.ResidualRelation`
``matvec_relation``    a :class:`~repro.core.relations.MatVecRelation`
``config``             the solve's :class:`~repro.solvers.cg_types.SolverConfig`,
                       the only source of prices: a strategy charges its
                       work with ``config.cost_model`` (and full-vector work
                       at ``config.work_scale``) and holds no prices itself
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, List, Tuple


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
    #: (FEIR); False if they are overlapped with reductions (AFEIR), at a
    #: lower priority so every reduction task starts first (Section 3.3.2).
    recovery_in_critical_path: bool = False

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
