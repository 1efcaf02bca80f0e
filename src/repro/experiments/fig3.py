"""Figure 3 — convergence over time with a single error in the iterate.

The paper injects one DUE into a page of ``x`` 30 seconds into a ~70 s
solve of the matrix thermal2 and plots ``log10(||Ax-b||/||b||)`` against
wall time for the ideal CG and the four resilience methods.  The shapes
to reproduce:

* the ideal CG is unaffected;
* FEIR and AFEIR continue with (almost) the ideal convergence, AFEIR
  paying slightly less overhead;
* the Lossy Restart shows an immediate residual drop at the error (the
  block-Jacobi interpolation) but converges slower afterwards because of
  the restart;
* checkpointing rolls back and repeats iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.convergence import ResidualHistory
from repro.analysis.overheads import overhead_percent
from repro.analysis.report import format_table
from repro.campaign.engine import solve_trial
from repro.campaign.store import CampaignCache
from repro.experiments.common import ExperimentConfig, solve_cell
from repro.faults.scenarios import single_error_scenario


@dataclass
class Fig3Result:
    """Residual-vs-time curves per method for the single-error scenario."""

    matrix: str
    injection_time: float
    histories: Dict[str, ResidualHistory]
    final_times: Dict[str, float]
    config: ExperimentConfig


def run_fig3(config: Optional[ExperimentConfig] = None,
             matrix: str = "thermal2", inject_fraction: float = 0.4,
             page: int = 3, store=None) -> Fig3Result:
    """Reproduce Figure 3 on the thermal2 analogue (or any suite matrix).

    Every cell records its residual history, whatever ``config.knobs``
    says: the curves are the figure.
    """
    config = config or ExperimentConfig()
    if not 0.0 < inject_fraction < 1.0:
        raise ValueError("inject_fraction must be in (0, 1)")
    cache = CampaignCache(store)
    ideal = solve_trial(config.cell(matrix, None, record_history=True), cache)
    t_inject = inject_fraction * ideal.solve_time
    scenario = single_error_scenario("x", page, t_inject,
                                     name=f"fig3-{matrix}")
    histories: Dict[str, ResidualHistory] = {"Ideal": ideal.record.history}
    final_times: Dict[str, float] = {"Ideal": ideal.solve_time}
    for method in ("AFEIR", "FEIR", "Lossy", "ckpt"):
        run = solve_cell(config.cell(matrix, method, scenario,
                                     record_history=True), ideal, cache)
        histories[method] = run.record.history
        final_times[method] = run.result.solve_time
    return Fig3Result(matrix=matrix, injection_time=t_inject,
                      histories=histories, final_times=final_times,
                      config=config)


def format_fig3(result: Fig3Result) -> str:
    """Summarise the curves: time to convergence per method."""
    rows: List[List[object]] = []
    ideal_time = result.final_times["Ideal"]
    for method, time in result.final_times.items():
        history = result.histories[method]
        rows.append([method, time, overhead_percent(time, ideal_time),
                     history.final_residual,
                     len(history)])
    return format_table(
        ["method", "time to convergence", "slowdown %", "final residual",
         "recorded points"],
        rows,
        title=(f"Figure 3: single error in x at t={result.injection_time:.3f}s "
               f"({result.matrix})"),
        float_format="{:.4g}")
