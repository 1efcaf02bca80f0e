"""The resilient CG's public data types.

What goes into a solve (:class:`SolverConfig`), what the solver shows a
recovery strategy while it runs (:class:`CGState`) and what comes out
(:class:`SolveResult`) — shared by the solve loop
(:mod:`repro.solvers.resilient_cg`, which re-exports them) and the
iteration-plan owner (:mod:`repro.solvers.cg_plan`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, NamedTuple, Optional, Sequence

import numpy as np

from repro.analysis.convergence import ConvergenceRecord
from repro.config import (DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE,
                          DEFAULT_WORKERS, PAGE_DOUBLES)
from repro.core.relations import MatVecRelation, ResidualRelation
from repro.core.strategy import RecoveryStats
from repro.matrices.blocked import PageBlockedMatrix
from repro.memory.pages import PagedVector
from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.runtime.runtime import RuntimeSpec, resolve_runtime_spec
from repro.runtime.scheduler import Timeline, breakdown
from repro.runtime.trace import ExecutionTrace


@dataclass(frozen=True)
class SolverConfig:
    """Configuration of the resilient CG run.

    The runtime cell is validated on construction: a combination no
    solve could run fails here, naming the axis to fix.
    """

    tolerance: float = DEFAULT_TOLERANCE
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    num_workers: int = DEFAULT_WORKERS
    page_size: int = PAGE_DOUBLES
    cost_model: CostModel = DEFAULT_COST_MODEL
    #: Scale factor applied to compute-task durations (and checkpoint
    #: volume) so the scaled-down test matrices are *timed* as if they
    #: had the paper's problem sizes.  Purely a timing device; the
    #: numerics are untouched.
    work_scale: float = 200.0
    #: Record the per-iteration residual history.
    record_history: bool = True
    #: Wall-clock pacing of the threaded scheduler: each task occupies
    #: its thread for at least ``duration * pace`` real seconds, so
    #: schedule effects (overlap, barriers) are physically measurable.
    #: 0 disables.
    pace: float = 1.0
    #: The runtime cell (:mod:`repro.runtime.runtime`): scheduler
    #: "list"/"threaded" (how graphs run), placement "local"/"ranks"
    #: (where kernels run; ``None`` is inferred from ``ranks``), clock
    #: "simulated"/"wall" (which timeline is reported).  The simulated
    #: timeline — and therefore every clock-dependent decision — is
    #: bit-identical across all cells.
    scheduler: str = "list"
    placement: Optional[str] = None
    clock: str = "simulated"
    #: Rank-parallel execution (``repro.distributed.ranks``): with
    #: ``ranks > 1`` the numerical kernels are strip-partitioned over
    #: that many rank workers with real halo exchange, tree allreduces
    #: and owner-local recovery.  The reductions are reproducibly
    #: ordered, so results are bit-identical to ``ranks=1``; the
    #: simulated timeline is unaffected either way.
    ranks: int = 1

    def __post_init__(self):
        # Resolved (and so validated) once: not a field, and a frozen
        # config's cell cannot change.
        object.__setattr__(self, "_runtime_spec", resolve_runtime_spec(
            scheduler=self.scheduler, placement=self.placement,
            clock=self.clock, ranks=self.ranks))

    def runtime_spec(self) -> RuntimeSpec:
        """The resolved (scheduler x placement x clock) cell."""
        return self._runtime_spec


@dataclass
class CGState:
    """Solver state handed to recovery strategies (see ``core.strategy``)."""

    blocked: PageBlockedMatrix
    b: np.ndarray
    vectors: Dict[str, PagedVector]
    residual_relation: ResidualRelation
    matvec_relation: MatVecRelation
    #: The solve's configuration: what a strategy prices its work with.
    config: SolverConfig
    current_d_name: str = "d0"
    previous_d_name: str = "d1"


class LedgerEntry(NamedTuple):
    """Where one iteration's simulated time went: it advanced the clock
    by ``makespan + handler_work + service``, added in that order."""

    #: The schedule the clock advanced by, without its plan.
    timeline: Timeline
    makespan: float
    #: Recovery work done in a signal handler (Lossy, ckpt, Trivial)
    #: after the schedule, serialising the faulting worker.
    handler_work: float
    #: Page-fault service time of the iteration's detected DUEs.
    service: float
    #: DUEs too late for their point's scalar (AFEIR's skipped pages).
    late: int


@dataclass
class SolveResult:
    """Everything produced by one resilient solve.

    ``ledger`` holds one :class:`LedgerEntry` per iteration, in order;
    ``solve_time`` is its in-order fold.  The simulated per-state
    breakdown, :attr:`trace`, is derived on first read from each entry's
    timeline, summed in iteration order: a solve nobody asks it of (a
    campaign trial) never computes it.  Every undisturbed iteration
    shares the fault-free entry, so the solve holds one reference per
    iteration plus an entry and the ``starts``/``ends`` of each
    iteration timed at its own clock (one a fault reached or might
    reach, or one writing a checkpoint): about 2.3 KiB each for a
    50-task iteration plan.  A timeline
    (:data:`~repro.runtime.scheduler.Timeline`) holds no plan, so the
    solver's plans are freed with the solver however long the result is
    kept, and the garbage collector tracks no timeline.  A pickle
    carries the derived trace instead of the ledger.
    """

    x: np.ndarray
    record: ConvergenceRecord
    stats: RecoveryStats
    #: Workers of the simulated timeline: the breakdown's worker count.
    num_workers: int
    ledger: Sequence[LedgerEntry] = ()
    ideal_iteration_time: float = 0.0
    #: Measured per-state accounting of the real execution, mirroring
    #: the simulated ``trace``: filled by every ``clock="wall"`` cell,
    #: the list scheduler's serial replay included.
    wall_trace: Optional[ExecutionTrace] = None
    #: The solve's :class:`~repro.runtime.backend.ExecutionFold`
    #: summary: runs and recovery scans executed, measured windows and
    #: observed real overlap.
    window_summary: Optional[Dict[str, object]] = None
    #: Measured inter-rank communication of the rank-parallel engine
    #: (:class:`~repro.distributed.ranks.RankCommStats`); ``None`` for
    #: single-rank solves.
    rank_stats: Optional[object] = None

    @cached_property
    def trace(self) -> ExecutionTrace:
        """Per-state accounting of the simulated timeline, summed over
        the iterations in order."""
        trace, parts = ExecutionTrace(self.num_workers), {}
        for entry in self.ledger:
            part = parts.get(id(entry.timeline))  # each shared one derived once
            if part is None:
                part = parts[id(entry.timeline)] = breakdown(entry.timeline)
            trace.accumulate(part)
        return trace

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["trace"], state["ledger"] = self.trace, ()
        return state

    @property
    def wall_clock(self) -> float:
        """Measured wall-clock seconds of real graph execution; 0.0
        under the simulated clock."""
        return 0.0 if self.wall_trace is None else self.wall_trace.wall_time

    @property
    def converged(self) -> bool:
        return self.record.converged

    @property
    def solve_time(self) -> float:
        return self.record.solve_time
