"""Table 3 — increase of time spent per state for the FEIR methods.

Paper values (percentage-point increase of each state's share relative
to the ideal CG):

=======  ==========  =======  ======
method   imbalance   runtime  useful
=======  ==========  =======  ======
AFEIR    4.30%       8.11%    1.90%
FEIR     25.06%      7.84%    2.78%
=======  ==========  =======  ======

We reproduce the measurement from the execution traces of the
discrete-event runtime: for each method and matrix, the share of
worker-time spent idle (imbalance), in runtime overhead (task creation
and scheduling) and executing solver tasks (useful) is compared against
the ideal CG's shares, then averaged over matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.report import format_table
from repro.campaign.store import CampaignCache
from repro.experiments.common import ExperimentConfig, ideal_runs, solve_cell

PAPER_TABLE3 = {
    "AFEIR": {"imbalance": 4.30, "runtime": 8.11, "useful": 1.90},
    "FEIR": {"imbalance": 25.06, "runtime": 7.84, "useful": 2.78},
}


@dataclass
class Table3Result:
    """Mean per-state increases (percentage points, relative shares)."""

    increases: Dict[str, Dict[str, float]]
    config: ExperimentConfig
    #: Mean *measured* per-state shares of the real execution (threaded
    #: backend only): method -> state -> percent of wall worker-time.
    measured_shares: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def as_rows(self) -> List[List[object]]:
        rows = []
        for method, states in self.increases.items():
            paper = PAPER_TABLE3.get(method, {})
            rows.append([method, states["imbalance"], states["runtime"],
                         states["useful"],
                         paper.get("imbalance", float("nan")),
                         paper.get("runtime", float("nan")),
                         paper.get("useful", float("nan"))])
        return rows


def run_table3(config: Optional[ExperimentConfig] = None,
               matrices: Optional[Sequence[str]] = None,
               store=None) -> Table3Result:
    """Reproduce Table 3: per-state time increase of FEIR and AFEIR."""
    config = config or ExperimentConfig()
    cache = CampaignCache(store)
    accum: Dict[str, Dict[str, List[float]]] = {
        "AFEIR": {"imbalance": [], "runtime": [], "useful": []},
        "FEIR": {"imbalance": [], "runtime": [], "useful": []},
    }
    measured_accum: Dict[str, Dict[str, List[float]]] = {
        "AFEIR": {}, "FEIR": {},
    }
    for name, ideal in ideal_runs(config, cache, matrices).items():
        base = ideal.trace.breakdown
        base_frac = base.fractions()
        for method in ("AFEIR", "FEIR"):
            run = solve_cell(config.cell(name, method), ideal, cache)
            wall_trace = run.result.wall_trace
            if wall_trace is not None:
                for state, share in wall_trace.breakdown.fractions().items():
                    measured_accum[method].setdefault(state, []).append(
                        100.0 * share)
            frac = run.result.trace.breakdown.fractions()
            # Recovery-task execution counts as runtime-side work here: it is
            # activity the ideal run does not have, created by the runtime.
            runtime_share = frac["runtime"] + frac["recovery"]
            base_runtime = base_frac["runtime"] + base_frac["recovery"]
            accum[method]["imbalance"].append(
                100.0 * (frac["idle"] - base_frac["idle"]) / max(base_frac["idle"], 1e-9))
            accum[method]["runtime"].append(
                100.0 * (runtime_share - base_runtime) / max(base_runtime, 1e-9))
            accum[method]["useful"].append(
                100.0 * (frac["useful"] - base_frac["useful"]) / max(base_frac["useful"], 1e-9))
    increases = {method: {state: float(np.mean(vals))
                          for state, vals in states.items()}
                 for method, states in accum.items()}
    measured_shares = {method: {state: float(np.mean(vals))
                                for state, vals in states.items()}
                       for method, states in measured_accum.items() if states}
    return Table3Result(increases=increases, config=config,
                        measured_shares=measured_shares)


def format_table3(result: Table3Result) -> str:
    table = format_table(
        ["method", "imbalance %", "runtime %", "useful %",
         "paper imbalance %", "paper runtime %", "paper useful %"],
        result.as_rows(),
        title="Table 3: increase of time spent per state (FEIR methods)")
    if result.measured_shares:
        lines = [table, "", "measured wall-clock shares (clock=wall):"]
        for method, states in result.measured_shares.items():
            shares = "  ".join(f"{state}={value:.1f}%"
                               for state, value in sorted(states.items()))
            lines.append(f"  {method}: {shares}")
        return "\n".join(lines)
    return table
