"""Shared configuration and helpers for the experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.analysis.convergence import ConvergenceRecord
from repro.config import DEFAULT_SEED, derive_config
from repro.core.manager import STRATEGY_NAMES, make_strategy
from repro.faults.scenarios import ErrorScenario
from repro.matrices.suite import PAPER_MATRICES, MatrixInfo
from repro.matrices.stencil import stencil_rhs
from repro.precond.block_jacobi import BlockJacobiPreconditioner
from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.solvers.resilient_cg import ResilientCG, SolveResult, SolverConfig


@dataclass
class ExperimentConfig:
    """Knobs shared by all experiment drivers.

    The defaults are chosen so the full Figure 4 sweep runs in minutes on
    a laptop while keeping the page-to-vector geometry (tens of pages per
    vector) representative of the paper's setup.
    """

    num_workers: int = 8
    #: Page size used by the scaled-down experiments.  The paper's
    #: hardware page holds 512 doubles; with the scaled-down matrices we
    #: shrink the page proportionally so each vector still spans tens of
    #: pages (see DESIGN.md, substitution table).
    page_size: int = 128
    work_scale: float = 200.0
    tolerance: float = 1e-10
    max_iterations: int = 20000
    seed: int = DEFAULT_SEED
    cost_model: CostModel = DEFAULT_COST_MODEL
    matrices: Sequence[str] = tuple(PAPER_MATRICES)
    methods: Sequence[str] = STRATEGY_NAMES
    repetitions: int = 2
    preconditioned: bool = False
    checkpoint_interval: Optional[int] = None
    #: Wall-clock pacing of the threaded scheduler (see ``SolverConfig``).
    pace: float = 1.0
    #: The runtime cell of every solver (see ``SolverConfig``).  A
    #: ``"wall"`` clock makes the drivers additionally report *measured*
    #: wall-clock overheads; the simulated numbers are identical in
    #: every cell.
    scheduler: str = "list"
    placement: Optional[str] = None
    clock: str = "simulated"
    ranks: int = 1

    def solver_config(self) -> SolverConfig:
        return derive_config(SolverConfig, self, record_history=True)


@dataclass
class MethodRun:
    """One (matrix, method, scenario) run plus its baseline comparison."""

    matrix: str
    method: str
    scenario: str
    result: SolveResult
    ideal_time: float
    #: Measured wall-clock of the ideal baseline's real execution
    #: (threaded backend only; 0.0 under pure simulation).
    ideal_wall: float = 0.0

    @property
    def record(self) -> ConvergenceRecord:
        return self.result.record

    @property
    def overhead_percent(self) -> float:
        if self.ideal_time <= 0:
            raise ValueError("ideal time must be positive")
        return 100.0 * (self.result.solve_time - self.ideal_time) / self.ideal_time

    @property
    def measured_overhead_percent(self) -> Optional[float]:
        """Wall-clock overhead of the real execution versus the ideal
        run's real execution, or ``None`` under pure simulation."""
        if self.ideal_wall <= 0 or self.result.wall_clock <= 0:
            return None
        from repro.analysis.overheads import measured_overhead_percent
        return measured_overhead_percent(self.result.wall_clock,
                                         self.ideal_wall)


def build_problem(name: str, config: ExperimentConfig
                  ) -> Tuple[sp.csr_matrix, np.ndarray]:
    """Matrix + right-hand side for one suite entry."""
    info: MatrixInfo = PAPER_MATRICES[name]
    A = info.build()
    b = stencil_rhs(A, kind="random", seed=config.seed)
    return A, b


def make_solver(A: sp.spmatrix, b: np.ndarray, method: Optional[str],
                scenario: Optional[ErrorScenario],
                config: ExperimentConfig, matrix_name: str = "") -> ResilientCG:
    """Construct a :class:`ResilientCG` for one experiment cell."""
    strategy = None
    if method is not None:
        strategy = make_strategy(method, cost_model=config.cost_model,
                                 checkpoint_interval=config.checkpoint_interval)
    preconditioner = None
    if config.preconditioned:
        preconditioner = BlockJacobiPreconditioner(A, page_size=config.page_size)
    return ResilientCG(A, b, strategy=strategy, preconditioner=preconditioner,
                       scenario=scenario, config=config.solver_config(),
                       matrix_name=matrix_name)


def run_ideal(A: sp.spmatrix, b: np.ndarray, config: ExperimentConfig,
              matrix_name: str = "") -> SolveResult:
    """Fault-free, resilience-free baseline used as the "ideal CG"."""
    solver = make_solver(A, b, None, None, config, matrix_name)
    try:
        return solver.solve()
    finally:
        solver.close()


def run_method(A: sp.spmatrix, b: np.ndarray, method: str,
               scenario: Optional[ErrorScenario], ideal: SolveResult,
               config: ExperimentConfig, matrix_name: str = "") -> MethodRun:
    """Run one resilience method against the provided baseline."""
    solver = make_solver(A, b, method, scenario, config, matrix_name)
    try:
        result = solver.solve(ideal_time=ideal.solve_time)
    finally:
        solver.close()
    return MethodRun(matrix=matrix_name, method=method,
                     scenario=scenario.name if scenario else "fault-free",
                     result=result, ideal_time=ideal.solve_time,
                     ideal_wall=ideal.wall_clock)


def ideal_cache(config: ExperimentConfig,
                names: Optional[Sequence[str]] = None
                ) -> Dict[str, Tuple[sp.csr_matrix, np.ndarray, SolveResult]]:
    """Build and solve the ideal baseline for every requested matrix once."""
    cache: Dict[str, Tuple[sp.csr_matrix, np.ndarray, SolveResult]] = {}
    for name in (names if names is not None else config.matrices):
        A, b = build_problem(name, config)
        cache[name] = (A, b, run_ideal(A, b, config, matrix_name=name))
    return cache
