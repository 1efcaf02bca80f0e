"""The resilient CG's public data types.

What goes into a solve (:class:`SolverConfig`), what the solver shows a
recovery strategy while it runs (:class:`CGState`) and what comes out
(:class:`SolveResult`) — shared by the solve loop
(:mod:`repro.solvers.resilient_cg`, which re-exports them) and the
iteration-plan owner (:mod:`repro.solvers.cg_plan`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.analysis.convergence import ConvergenceRecord
from repro.config import (DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE,
                          DEFAULT_WORKERS, PAGE_DOUBLES)
from repro.core.relations import MatVecRelation, ResidualRelation
from repro.core.strategy import RecoveryStats
from repro.matrices.blocked import PageBlockedMatrix
from repro.memory.manager import MemoryManager
from repro.memory.pages import PagedVector
from repro.precond.base import Preconditioner
from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.runtime.trace import ExecutionTrace


@dataclass
class SolverConfig:
    """Configuration of the resilient CG run."""

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
    #: Cap on the threaded scheduler's real thread count (``None``: one
    #: thread per simulated worker, capped by ``REPRO_MAX_WORKERS``).
    max_threads: Optional[int] = None
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


@dataclass
class CGState:
    """Solver state handed to recovery strategies (see ``core.strategy``)."""

    blocked: PageBlockedMatrix
    b: np.ndarray
    vectors: Dict[str, PagedVector]
    memory: MemoryManager
    residual_relation: ResidualRelation
    matvec_relation: MatVecRelation
    preconditioner: Optional[Preconditioner]
    current_d_name: str = "d0"
    previous_d_name: str = "d1"
    #: Where in the iteration we are ("A", "B", "C" or "D").
    point: str = "A"
    #: Scalars available for relation-based recovery (e.g. ``beta``).
    scalars: Dict[str, float] = field(default_factory=dict)


@dataclass
class SolveResult:
    """Everything produced by one resilient solve."""

    x: np.ndarray
    record: ConvergenceRecord
    trace: ExecutionTrace
    stats: RecoveryStats
    ideal_iteration_time: float = 0.0
    #: Measured wall-clock seconds of real graph execution (threaded
    #: backend only; 0.0 under pure simulation).
    wall_clock: float = 0.0
    #: Measured per-state accounting of the real execution, mirroring
    #: the simulated ``trace`` (threaded backend only).
    wall_trace: Optional[ExecutionTrace] = None
    #: Digest of the vulnerable-window monitor: recovery scans executed,
    #: measured windows, observed real overlap, DUEs landing in-window.
    window_summary: Optional[Dict[str, object]] = None
    #: Measured inter-rank communication of the rank-parallel engine
    #: (:class:`~repro.distributed.ranks.RankCommStats`); ``None`` for
    #: single-rank solves.
    rank_stats: Optional[object] = None

    @property
    def converged(self) -> bool:
        return self.record.converged

    @property
    def solve_time(self) -> float:
        return self.record.solve_time
