"""Shared configuration and cell helpers for the experiment drivers.

The drivers own no solver stack.  Table 2, Table 3, Fig. 3 and Fig. 5
describe each cell as a campaign :class:`~repro.campaign.spec.TrialSpec`
(:func:`driver_cell`: matrix, method — ``None`` for the ideal run — and
an optional fixed-injection scenario; :meth:`ExperimentConfig.cell` for
a suite matrix) and solve it through
:func:`repro.campaign.engine.solve_trial`, the one place a cell is
built, baselined and solved, over the
:class:`~repro.campaign.store.CampaignCache` they make around the store
they are given; Fig. 4 hands the whole grid to ``run_campaign``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence

import numpy as np

from repro.analysis.convergence import ConvergenceRecord
from repro.analysis.overheads import (measured_overhead_percent,
                                      overhead_percent)
from repro.campaign.engine import keep_baseline, solve_trial
from repro.campaign.spec import MatrixSpec, SolverKnobs, TrialSpec
from repro.campaign.store import CampaignCache
from repro.config import DEFAULT_SEED
from repro.core.manager import STRATEGY_NAMES
from repro.faults.scenarios import ErrorScenario
from repro.matrices.suite import PAPER_MATRICES
from repro.solvers.resilient_cg import SolveResult

#: The reduced grid of ``--quick`` runs and the scaled-down benchmarks.
QUICK_MATRICES = ("qa8fm", "Dubcova3", "consph", "thermomech")
QUICK_RATES = (1.0, 10.0, 50.0)


def driver_cell(matrix: MatrixSpec, knobs: SolverKnobs,
                method: Optional[str],
                scenario: Optional[ErrorScenario] = None,
                seed: int = DEFAULT_SEED) -> TrialSpec:
    """One driver cell as a campaign trial: ``method`` (``None``: the
    ideal CG) on ``matrix``, fault-free unless a fixed-injection
    ``scenario`` is given."""
    return TrialSpec(index=0, matrix=matrix, method=method, rate=0.0,
                     repetition=0, seed=np.random.SeedSequence(seed),
                     knobs=knobs, scenario=scenario)


@dataclass
class ExperimentConfig:
    """The grid shared by all experiment drivers, beside the solver
    ``knobs`` of every cell.

    The knob defaults are chosen so the full Figure 4 sweep runs in
    minutes on a laptop while keeping the page-to-vector geometry (tens
    of pages per vector) representative of the paper's setup.  A
    ``"wall"`` clock makes the drivers additionally report *measured*
    wall-clock overheads; the simulated numbers are identical in every
    runtime cell.
    """

    matrices: Sequence[str] = tuple(PAPER_MATRICES)
    methods: Sequence[str] = STRATEGY_NAMES
    repetitions: int = 2
    #: Seeds the right-hand sides and the Figure 4 campaign.
    seed: int = DEFAULT_SEED
    knobs: SolverKnobs = SolverKnobs()

    def matrix(self, name: str) -> MatrixSpec:
        """Suite matrix ``name`` with this configuration's right-hand side."""
        return MatrixSpec.suite(name, rhs_seed=self.seed)

    def cell(self, name: str, method: Optional[str],
             scenario: Optional[ErrorScenario] = None,
             **knobs) -> TrialSpec:
        """The :func:`driver_cell` of ``method`` on suite matrix ``name``;
        ``knobs`` override the configuration's for this cell."""
        return driver_cell(self.matrix(name), replace(self.knobs, **knobs),
                           method, scenario, self.seed)


@dataclass
class MethodRun:
    """One (matrix, method, scenario) run plus its baseline comparison."""

    matrix: str
    method: str
    scenario: str
    result: SolveResult
    ideal_time: float
    #: Measured wall-clock of the ideal baseline's real execution (every
    #: ``clock="wall"`` cell; 0.0 under the simulated clock).
    ideal_wall: float = 0.0

    @property
    def record(self) -> ConvergenceRecord:
        return self.result.record

    @property
    def overhead_percent(self) -> float:
        return overhead_percent(self.result.solve_time, self.ideal_time)

    @property
    def measured_overhead_percent(self) -> Optional[float]:
        """Wall-clock overhead of the real execution versus the ideal
        run's real execution, or ``None`` under the simulated clock."""
        if self.ideal_wall <= 0 or self.result.wall_clock <= 0:
            return None
        return measured_overhead_percent(self.result.wall_clock,
                                         self.ideal_wall)


def ideal_runs(config: ExperimentConfig, cache: CampaignCache,
               names: Optional[Sequence[str]] = None
               ) -> Dict[str, SolveResult]:
    """Solve the ideal baseline of every requested matrix once."""
    return {name: solve_trial(config.cell(name, None), cache)
            for name in (names if names is not None else config.matrices)}


def solve_cell(cell: TrialSpec, ideal: SolveResult,
               cache: CampaignCache) -> MethodRun:
    """Solve one method cell against the ideal run the driver holds.

    That run becomes the cell's baseline in the cache, so it is not
    solved a second time — nor a third under knobs the baseline does not
    depend on (Table 2's checkpoint intervals, Fig. 3's history)."""
    ideal_time = keep_baseline(cell.matrix, cell.knobs, ideal, cache)
    return MethodRun(matrix=cell.matrix.label, method=cell.method,
                     scenario=cell.make_scenario().name,
                     result=solve_trial(cell, cache), ideal_time=ideal_time,
                     ideal_wall=ideal.wall_clock)
