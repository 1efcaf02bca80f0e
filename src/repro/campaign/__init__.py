"""Parallel fault-injection campaign engine.

The paper's headline claim — exact forward recovery absorbs DUEs with
negligible overhead — is a statistical one, established over thousands
of injected-fault solver runs (Figs. 4-5).  This package makes that
workload first-class:

* :class:`CampaignSpec` declares the grid (matrix family x method x
  error rate x repetitions) plus solver knobs and a campaign seed;
* :func:`run_campaign` expands it into independent, picklable trials
  and executes them through a pluggable executor — serial or a
  process pool — streaming slim per-trial records into a
  :class:`CampaignResult`;
* aggregation is deterministic: identical statistics (bit-for-bit)
  regardless of executor and completion order, because every trial owns
  a :class:`numpy.random.SeedSequence` keyed on the campaign seed and
  on what the trial is.

Quick start::

    from repro.campaign import (CampaignSpec, MatrixSpec, SolverKnobs,
                                make_executor, run_campaign)

    spec = CampaignSpec(matrices=[MatrixSpec.parse("laplacian2d:45")],
                        methods=("FEIR", "AFEIR"), rates=(1.0, 10.0),
                        repetitions=25, seed=2015,
                        knobs=SolverKnobs(tolerance=1e-8))
    result = run_campaign(spec, executor=make_executor("process"))
    print(result.format())
"""

from repro.campaign.engine import run_campaign, run_trial
from repro.campaign.executors import SerialExecutor, make_executor
from repro.campaign.results import DIVERGED_SLOWDOWN
from repro.campaign.spec import CampaignSpec, MatrixSpec, SolverKnobs
from repro.campaign.store import CampaignStore

__all__ = [
    "CampaignSpec",
    "CampaignStore",
    "DIVERGED_SLOWDOWN",
    "MatrixSpec",
    "SerialExecutor",
    "SolverKnobs",
    "make_executor",
    "run_campaign",
    "run_trial",
]
