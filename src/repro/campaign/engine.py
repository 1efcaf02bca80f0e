"""The campaign engine: expand a spec, execute trials, aggregate results.

One pipeline builds, baselines and solves a cell — for the campaign
grid, for the daemon's shards and for the Table 2 / Table 3 / Fig. 3
drivers alike: :func:`solve_trial` resolves the problem and the
fault-free *ideal* baseline through the
:class:`~repro.campaign.store.CampaignCache` it is handed, builds the
strategy, the preconditioner and the :class:`ResilientCG`, solves and
closes.  :func:`run_trial` is that plus the reduction to a slim
:class:`TrialResult`; the baseline is that for ``method=None``.

The execution model keeps workers cheap and results deterministic:

* a worker process rebuilds its problem from the :class:`MatrixSpec`
  (matrices are never pickled across the pool) and keeps the built
  matrix and the baseline in its process's cache, so a process touching
  50 trials of the same cell pays for one build and one baseline solve;
* the ideal baseline is fully deterministic, so every process computes
  the exact same ``ideal_time`` and trials agree bit-for-bit no matter
  where they ran;
* per-trial randomness comes exclusively from the trial's content-keyed
  :class:`numpy.random.SeedSequence` (see ``campaign.spec``), threaded
  through :class:`~repro.faults.scenarios.ErrorScenario` into the
  injector's private Generator.

Over a :class:`~repro.campaign.store.CampaignStore` the cache's RAM tier
has a persistent second level: built matrices, baselines and completed
trials are looked up by content address before any work happens,
already-completed trials are *never dispatched at all*, and workers
persist each finished trial immediately — which is what makes campaigns
incremental, resumable after an interruption, and shardable across
machines (see ``campaign.store``).  There is no module state here: a
fresh cache (a fresh ``run_campaign`` call, a fresh store) is a cold one.

``run_campaign`` streams results as the executor completes them into a
:class:`CampaignResult` whose aggregation is order-independent.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Tuple

import numpy as np

from repro.campaign.executors import CampaignExecutor, SerialExecutor
from repro.campaign.results import CampaignResult, TrialResult
from repro.campaign.spec import (CampaignSpec, MatrixSpec, SolverKnobs,
                                 TrialSpec, content_hash, shard_trials)
from repro.campaign.store import CampaignCache, CampaignStore
from repro.config import derive_config


# ----------------------------------------------------------------------
# one cell: problem, baseline, solver, solve
# ----------------------------------------------------------------------
def _problem(matrix: MatrixSpec, cache: CampaignCache) -> tuple:
    key = content_hash(matrix.content_token())
    problem = cache.get_matrix(key)
    if problem is None:
        problem = matrix.build()
        cache.put_matrix(key, *problem)
    return problem


def baseline_key(matrix: MatrixSpec, knobs: SolverKnobs) -> str:
    """Content address of the fault-free baseline of ``(matrix, knobs)``."""
    return content_hash(f"baseline/v1|{matrix.content_token()}|"
                        f"{knobs.content_token()}")


def keep_baseline(matrix: MatrixSpec, knobs: SolverKnobs, ideal,
                  cache: CampaignCache) -> float:
    """Put the ideal run ``ideal`` (a ``SolveResult``) in the cache as
    the baseline of ``(matrix, knobs)`` and return its solve time.  A
    caller that already holds the ideal run (the experiment drivers)
    seeds the cache with it instead of having it solved twice."""
    if not ideal.record.converged:
        raise RuntimeError(
            f"ideal baseline did not converge on {matrix.label} "
            f"within {knobs.max_iterations} iterations; the campaign "
            f"overheads would be meaningless")
    cache.put_baseline(baseline_key(matrix, knobs), ideal.solve_time)
    return ideal.solve_time


def _ideal_time(matrix: MatrixSpec, knobs: SolverKnobs,
                cache: CampaignCache) -> float:
    """Fault-free baseline solve time, through the cache.  The baseline
    is fully deterministic, so a stored value is bit-identical to a
    recomputed one (``float.hex`` round-trip)."""
    ideal = cache.get_baseline(baseline_key(matrix, knobs))
    if ideal is None:
        # The ideal cell: no method, no faults, and so no use for a seed.
        cell = TrialSpec(index=0, matrix=matrix, method=None, rate=0.0,
                         repetition=0, seed=np.random.SeedSequence(0),
                         knobs=knobs)
        ideal = keep_baseline(matrix, knobs, solve_trial(cell, cache), cache)
    return ideal


def solve_trial(trial: TrialSpec, cache: CampaignCache):
    """Build, baseline and solve one cell; the full ``SolveResult``.

    The only place a cell's solver is put together.  ``method=None`` is
    the ideal run: no strategy, no scenario and no baseline of its own.
    """
    from repro.core.manager import make_strategy
    from repro.precond.block_jacobi import BlockJacobiPreconditioner
    from repro.solvers.resilient_cg import ResilientCG, SolverConfig
    knobs = trial.knobs
    A, b = _problem(trial.matrix, cache)
    strategy = scenario = ideal_time = None
    if trial.method is not None:
        ideal_time = _ideal_time(trial.matrix, knobs, cache)
        strategy = make_strategy(trial.method, cost_model=knobs.cost_model,
                                 checkpoint_interval=knobs.checkpoint_interval)
        scenario = trial.make_scenario()
    preconditioner = None
    if knobs.preconditioned:
        preconditioner = BlockJacobiPreconditioner(A,
                                                   page_size=knobs.page_size)
    solver = ResilientCG(A, b, strategy=strategy,
                         preconditioner=preconditioner, scenario=scenario,
                         config=derive_config(SolverConfig, knobs),
                         matrix_name=trial.matrix.label)
    try:
        return solver.solve(ideal_time=ideal_time)
    finally:
        # The threaded backend owns real worker threads; release them so
        # a 10^4-trial campaign does not accumulate thread pools.
        solver.close()


def run_trial(trial: TrialSpec, cache: CampaignCache) -> TrialResult:
    """Execute one campaign trial and reduce it to its slim record."""
    started = time.perf_counter()  # repro-lint: allow[wall-clock] trial wall_time metric, reported not fingerprinted
    ideal_time = _ideal_time(trial.matrix, trial.knobs, cache)
    result = solve_trial(trial, cache)
    record = result.record
    return TrialResult(
        index=trial.index, matrix=trial.matrix.label, method=trial.method,
        rate=trial.rate, repetition=trial.repetition,
        converged=record.converged, iterations=record.iterations,
        solve_time=record.solve_time, ideal_time=ideal_time,
        final_residual=record.final_residual,
        faults_injected=record.faults_injected,
        faults_detected=record.faults_detected,
        restarts=record.restarts, rollbacks=record.rollbacks,
        pages_recovered=result.stats.pages_recovered,
        pages_unrecoverable=result.stats.pages_unrecoverable,
        wall_time=time.perf_counter() - started)  # repro-lint: allow[wall-clock] trial wall_time metric, reported not fingerprinted


class TrialRunner:
    """What an executor maps over the pending trials: run one, persist
    it, return it.

    In-process it reads and writes through the cache it was given; sent
    across a pool, the cache arrives as the worker process's own (see
    ``CampaignCache.__reduce__``).  Persisting from inside the worker —
    not the parent — is what makes interrupted campaigns resumable: a
    chunked campaign killed mid-stream has every finished trial on disk
    even though the parent never saw the chunk complete.
    """

    def __init__(self, cache: CampaignCache):
        self.cache = cache

    def __call__(self, trial: TrialSpec) -> TrialResult:
        result = run_trial(trial, self.cache)
        self.cache.put_trial(trial.store_key(), result)
        return result


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
def run_campaign(spec: CampaignSpec,
                 executor: Optional[CampaignExecutor] = None,
                 progress: Optional[Callable[[TrialResult, int, int],
                                             None]] = None,
                 store: Optional[CampaignStore] = None,
                 shard: Optional[Tuple[int, int]] = None,
                 trip: Optional[Callable[[int], None]] = None
                 ) -> CampaignResult:
    """Expand ``spec`` and execute every trial through ``executor``.

    ``progress`` (if given) is called after each completed trial with
    ``(trial_result, completed_count, total_count)`` — trials may
    complete out of order under the pool executors.

    ``store`` (a :class:`~repro.campaign.store.CampaignStore`) enables
    the content-addressed cache: trials whose content address is already
    stored are loaded instead of dispatched, and every executed trial is
    persisted by its worker the moment it finishes.  A warm re-run of an
    unchanged campaign therefore executes zero trials and reproduces the
    cold fingerprint byte-for-byte.

    ``shard=(i, N)`` restricts execution to the i-th round-robin shard
    of the expanded trial list; the partial result can be merged with
    the other shards via :meth:`CampaignResult.merge` into an aggregate
    byte-identical to an unsharded run.

    ``trip`` (if given) is called with the number of *executed* (not
    cached) trials after each one completes; raising
    :class:`~repro.campaign.executors.CampaignInterrupted` from it
    simulates an interruption mid-campaign (tests exercise resume with
    it via :class:`~repro.campaign.executors.TripAfter`).
    """
    executor = executor or SerialExecutor()
    trials = spec.expand()
    total = len(trials)
    if shard is not None:
        trials = shard_trials(trials, *shard)
    result = CampaignResult(name=spec.name, executor=executor.describe(),
                            spec_key=spec.store_key(), total_trials=total,
                            shard=shard)

    cache = CampaignCache(store)
    campaign_key = spec.store_key()
    pending = []
    for trial in trials:
        cached = cache.get_trial(trial.store_key())
        if cached is not None:
            result.add(cached)
            result.cache_hits += 1
        else:
            pending.append(trial)
    cache.journal_append(campaign_key, {
        "event": "start", "key": campaign_key,
        "spec": spec.describe(), "total": total,
        "shard": list(shard) if shard else None,
        "cached": result.cache_hits, "pending": len(pending)})

    started = time.perf_counter()  # repro-lint: allow[wall-clock] campaign wall_time metric, reported not fingerprinted
    completed = result.cache_hits
    executed = 0
    for trial_result in executor.run(TrialRunner(cache), pending):
        completed += 1
        executed += 1
        result.add(trial_result)
        cache.journal_append(campaign_key, {
            "event": "trial", "key": campaign_key,
            "index": trial_result.index})
        if progress is not None:
            progress(trial_result, completed, len(trials))
        if trip is not None:
            trip(executed)
    result.wall_time = time.perf_counter() - started  # repro-lint: allow[wall-clock] campaign wall_time metric, reported not fingerprinted
    result.executed = executed
    if completed != len(trials):
        raise RuntimeError(f"executor {executor.describe()} returned "
                           f"{executed} results for {len(pending)} "
                           f"pending trials ({len(trials)} in the shard)")
    cache.journal_append(campaign_key, {
        "event": "done", "key": campaign_key, "executed": executed,
        "cached": result.cache_hits,
        "fingerprint": result.fingerprint()})
    return result
