"""Table 2 — resilience methods' overheads in the absence of faults.

Paper values (harmonic means over the nine matrices):

=========  ======  =======  =====  =====  =========  ========
method     Lossy   Trivial  AFEIR  FEIR   ckpt 1K    ckpt 200
overhead   0.00%   0.00%    0.23%  2.73%  17.62%     46.20%
=========  ======  =======  =====  =====  =========  ========

The driver runs the ideal CG plus each method with no error injection
and reports the harmonic-mean overhead, including two fixed-interval
checkpointing configurations (every 1000 and every 200 iterations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.report import format_table
from repro.analysis.stats import harmonic_mean_overhead
from repro.campaign.store import CampaignCache
from repro.experiments.common import (ExperimentConfig, MethodRun,
                                      ideal_runs, solve_cell)

#: Paper reference numbers, used for side-by-side reporting only.
PAPER_TABLE2 = {
    "Lossy": 0.00, "Trivial": 0.00, "AFEIR": 0.23, "FEIR": 2.73,
    "ckpt-1000": 17.62, "ckpt-200": 46.20,
}


@dataclass
class Table2Result:
    """Harmonic-mean fault-free overhead per method, plus raw runs."""

    overheads: Dict[str, float]
    runs: List[MethodRun]
    config: ExperimentConfig
    #: Mean *measured* wall-clock overhead per method — only populated
    #: when the experiment ran on the threaded backend.  Noisy (plain
    #: mean, may be negative) but a direct observation: AFEIR's extra
    #: work really hides under the reductions, FEIR's barrier really
    #: serialises the critical path.
    wall_overheads: Dict[str, float] = field(default_factory=dict)

    def as_rows(self) -> List[List[object]]:
        rows = []
        for method, value in self.overheads.items():
            row = [method, value, PAPER_TABLE2.get(method, float("nan"))]
            if self.wall_overheads:
                row.append(self.wall_overheads.get(method, float("nan")))
            rows.append(row)
        return rows


def run_table2(config: Optional[ExperimentConfig] = None,
               matrices: Optional[Sequence[str]] = None,
               store=None) -> Table2Result:
    """Reproduce Table 2: fault-free overheads of every method.

    The simulated overhead column is deterministic and identical on both
    execution backends; with ``config.knobs.clock == "wall"`` a measured
    wall-clock overhead column is reported alongside it.  ``store`` (a
    :class:`~repro.campaign.store.CampaignStore`) keeps the built
    matrices and baselines across runs and shares them with Figure 4.
    """
    config = config or ExperimentConfig()
    cache = CampaignCache(store)
    methods = ["Lossy", "Trivial", "AFEIR", "FEIR"]
    runs: List[MethodRun] = []
    per_method: Dict[str, List[float]] = {m: [] for m in methods}
    per_method["ckpt-1000"] = []
    per_method["ckpt-200"] = []
    per_method_wall: Dict[str, List[float]] = {m: [] for m in per_method}

    def collect(label: str, run: MethodRun) -> None:
        runs.append(run)
        per_method[label].append(run.overhead_percent)
        measured = run.measured_overhead_percent
        if measured is not None:
            per_method_wall[label].append(measured)

    for name, ideal in ideal_runs(config, cache, matrices).items():
        for method in methods:
            collect(method, solve_cell(config.cell(name, method), ideal,
                                       cache))
        # The paper's fixed periods (1000 and 200 iterations) assume solves
        # of thousands of iterations.  The scaled-down analogues converge in
        # far fewer, so the two configurations are mapped to the equivalent
        # checkpoint *frequencies*: roughly twice per solve ("ckpt-1000") and
        # roughly ten times per solve ("ckpt-200").
        iters = max(ideal.record.iterations, 1)
        for divisor, label in ((2, "ckpt-1000"), (10, "ckpt-200")):
            cell = config.cell(name, "ckpt",
                               checkpoint_interval=max(1, iters // divisor))
            collect(label, solve_cell(cell, ideal, cache))

    overheads = {method: harmonic_mean_overhead(values)
                 for method, values in per_method.items()}
    wall_overheads = {method: float(np.mean(values))
                      for method, values in per_method_wall.items() if values}
    return Table2Result(overheads=overheads, runs=runs, config=config,
                        wall_overheads=wall_overheads)


def format_table2(result: Table2Result) -> str:
    """Render the reproduction next to the paper's numbers."""
    headers = ["method", "measured overhead %", "paper overhead %"]
    if result.wall_overheads:
        headers.append("wall-clock overhead %")
    return format_table(
        headers, result.as_rows(),
        title="Table 2: resilience methods' overheads, no errors")
