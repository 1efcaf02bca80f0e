"""Residual histories and convergence records.

Figure 3 of the paper plots ``log10(||Ax - b|| / ||b||)`` against wall
time; every solver in this package therefore records, per iteration, the
simulated time and the relative residual so the same plot (and the
convergence-vs-slowdown comparisons of Figure 4) can be regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.analysis.overheads import overhead_percent


@dataclass
class ResidualHistory:
    """Per-iteration record of (iteration, simulated time, relative residual)."""

    iterations: List[int] = field(default_factory=list)
    times: List[float] = field(default_factory=list)
    residuals: List[float] = field(default_factory=list)

    def append(self, iteration: int, time: float, residual: float) -> None:
        if residual < 0:
            raise ValueError("residual norms cannot be negative")
        self.iterations.append(int(iteration))
        self.times.append(float(time))
        self.residuals.append(float(residual))

    def __len__(self) -> int:
        return len(self.iterations)

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else float("inf")

    def log_residuals(self) -> np.ndarray:
        """``log10`` of the residuals (the y-axis of Figure 3)."""
        res = np.asarray(self.residuals, dtype=np.float64)
        res = np.maximum(res, np.finfo(np.float64).tiny)
        return np.log10(res)


@dataclass
class ConvergenceRecord:
    """Outcome of one solve."""

    converged: bool
    iterations: int
    solve_time: float
    final_residual: float
    history: ResidualHistory = field(default_factory=ResidualHistory)
    method: str = ""
    matrix: str = ""
    faults_injected: int = 0
    faults_detected: int = 0
    restarts: int = 0
    rollbacks: int = 0

    def slowdown_vs(self, baseline: "ConvergenceRecord") -> float:
        """Relative slowdown versus a baseline record, in percent."""
        return overhead_percent(self.solve_time, baseline.solve_time)

    def summary(self) -> str:
        status = "converged" if self.converged else "NOT converged"
        return (f"{self.method or 'solver'} on {self.matrix or 'matrix'}: "
                f"{status} in {self.iterations} iterations, "
                f"t={self.solve_time:.3f}s, residual={self.final_residual:.3e}, "
                f"faults={self.faults_detected}/{self.faults_injected}")
