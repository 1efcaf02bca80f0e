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
  a :class:`numpy.random.SeedSequence` spawned from the campaign seed.

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

from repro.campaign.engine import (CampaignRun, run_campaign, run_trial,
                                   solve_trial)
from repro.campaign.executors import (EXECUTOR_NAMES, CampaignExecutor,
                                      CampaignInterrupted,
                                      ProcessPoolExecutor, SerialExecutor,
                                      TripAfter, WorkerLost, make_executor)
from repro.campaign.results import (DIVERGED_SLOWDOWN, CampaignResult,
                                    CellStats, TrialResult)
from repro.campaign.spec import (MATRIX_FAMILIES, CampaignSpec, MatrixSpec,
                                 SolverKnobs, TrialSpec, content_hash,
                                 parse_shard, shard_trials)
from repro.campaign.store import (DEFAULT_STORE_PATH, STORE_ENV,
                                  STORE_SCHEMA_VERSION, CampaignCache,
                                  CampaignStore, StoreSchemaError,
                                  VerifyReport, default_store_root)

__all__ = [
    "CampaignCache",
    "CampaignExecutor",
    "CampaignInterrupted",
    "CampaignResult",
    "CampaignRun",
    "CampaignSpec",
    "CampaignStore",
    "CellStats",
    "DEFAULT_STORE_PATH",
    "DIVERGED_SLOWDOWN",
    "EXECUTOR_NAMES",
    "MATRIX_FAMILIES",
    "MatrixSpec",
    "ProcessPoolExecutor",
    "STORE_ENV",
    "STORE_SCHEMA_VERSION",
    "SerialExecutor",
    "SolverKnobs",
    "StoreSchemaError",
    "TrialResult",
    "TrialSpec",
    "TripAfter",
    "VerifyReport",
    "WorkerLost",
    "content_hash",
    "default_store_root",
    "make_executor",
    "parse_shard",
    "run_campaign",
    "run_trial",
    "shard_trials",
    "solve_trial",
]
