"""Figure 4 — performance slowdown versus normalised error rate.

The paper sweeps 9 matrices x 6 normalised error frequencies
{1, 2, 5, 10, 20, 50} x 5 methods (270 experiments, each repeated >50
times) and plots the harmonic-mean slowdown with respect to the ideal
CG, for CG and block-Jacobi PCG.  Key shapes to reproduce:

* FEIR and AFEIR stay far below the other methods at every rate
  (5.37% / 3.59% at rate 1 for CG in the paper);
* AFEIR is cheaper than FEIR at low rates, the gap closes (and can
  invert) at the highest rates;
* the Lossy Restart sits in between and grows steeply with the rate;
* checkpointing starts around 55% and grows into the hundreds of %;
* the trivial method diverges quickly (several hundred % already at
  rate 5, unbounded beyond).

This driver is a thin wrapper over the campaign engine
(:mod:`repro.campaign`): the sweep grid becomes a
:class:`~repro.campaign.CampaignSpec`, so the full figure can run on any
campaign executor — pass ``executor=make_executor('process')`` to fan
the trials out over a process pool with identical statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.campaign.engine import run_campaign
from repro.campaign.executors import CampaignExecutor
from repro.campaign.results import (DIVERGED_SLOWDOWN, CampaignResult,
                                    TrialResult)
from repro.campaign.spec import CampaignSpec
from repro.experiments.common import ExperimentConfig
from repro.faults.scenarios import PAPER_ERROR_RATES

__all__ = ["DIVERGED_SLOWDOWN", "Fig4Cell", "Fig4Result", "campaign_spec",
           "run_fig4", "format_fig4", "format_fig4_per_matrix"]


@dataclass
class Fig4Cell:
    """One (matrix, method, rate) aggregate."""

    matrix: str
    method: str
    rate: float
    mean_slowdown: float
    std_slowdown: float
    runs: List[TrialResult] = field(default_factory=list)


@dataclass
class Fig4Result:
    """Full sweep plus per-method/rate summary (the "CG mean" columns)."""

    cells: List[Fig4Cell]
    summary: Dict[Tuple[str, float], float]
    config: ExperimentConfig
    campaign: Optional[CampaignResult] = None

    def summary_rows(self) -> List[List[object]]:
        rates = sorted({rate for (_, rate) in self.summary})
        methods = sorted({method for (method, _) in self.summary})
        rows = []
        for method in methods:
            row: List[object] = [method]
            for rate in rates:
                row.append(self.summary.get((method, rate), float("nan")))
            rows.append(row)
        return rows


def campaign_spec(config: ExperimentConfig,
                  rates: Sequence[float] = PAPER_ERROR_RATES,
                  matrices: Optional[Sequence[str]] = None,
                  methods: Optional[Sequence[str]] = None) -> CampaignSpec:
    """The Figure 4 sweep expressed as a campaign."""
    names = list(matrices if matrices is not None else config.matrices)
    methods = list(methods if methods is not None else config.methods)
    return CampaignSpec(
        matrices=[config.matrix(name) for name in names],
        methods=methods, rates=[float(r) for r in rates],
        repetitions=config.repetitions, seed=config.seed,
        knobs=config.knobs, name="fig4")


def run_fig4(config: Optional[ExperimentConfig] = None,
             rates: Sequence[float] = PAPER_ERROR_RATES,
             matrices: Optional[Sequence[str]] = None,
             methods: Optional[Sequence[str]] = None,
             executor: Optional[CampaignExecutor] = None,
             store=None) -> Fig4Result:
    """Reproduce the Figure 4 sweep (possibly on a subset, for quick runs).

    ``store`` (a :class:`~repro.campaign.store.CampaignStore`) routes
    the sweep through the content-addressed cache: the quick grid warms
    the full nine-matrix sweep, an aborted sweep resumes where it
    stopped, and an unchanged re-run executes zero trials.
    """
    config = config or ExperimentConfig()
    spec = campaign_spec(config, rates=rates, matrices=matrices,
                         methods=methods)
    campaign = run_campaign(spec, executor=executor, store=store)

    grouped: Dict[Tuple[str, str, float], List[TrialResult]] = {}
    for trial in campaign.sorted_trials():
        grouped.setdefault((trial.matrix, trial.method, trial.rate),
                           []).append(trial)
    cells = [Fig4Cell(matrix=matrix, method=method, rate=rate,
                      mean_slowdown=campaign.cell(matrix, method,
                                                  rate).mean_slowdown,
                      std_slowdown=campaign.cell(matrix, method,
                                                 rate).std_slowdown,
                      runs=members)
             for (matrix, method, rate), members in grouped.items()]
    return Fig4Result(cells=cells, summary=campaign.summary(), config=config,
                      campaign=campaign)


def format_fig4(result: Fig4Result) -> str:
    """Render the per-method mean slowdown per rate (the "CG mean" block)."""
    rates = sorted({rate for (_, rate) in result.summary})
    headers = ["method"] + [f"rate {rate:g}" for rate in rates]
    label = "PCG" if result.config.knobs.preconditioned else "CG"
    return format_table(
        headers, result.summary_rows(),
        title=f"Figure 4 ({label} mean): slowdown % vs normalised error rate")


def format_fig4_per_matrix(result: Fig4Result) -> str:
    """Render every (matrix, method, rate) cell, mirroring the full figure."""
    rows = [[c.matrix, c.method, c.rate, c.mean_slowdown, c.std_slowdown]
            for c in result.cells]
    return format_table(
        ["matrix", "method", "rate", "slowdown %", "std %"], rows,
        title="Figure 4: per-matrix slowdowns")
