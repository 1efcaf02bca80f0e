"""The campaign engine: expand a spec, execute trials, aggregate results.

One pipeline builds, baselines and solves a cell — for the campaign
grid, for the daemon's jobs and for the Table 2 / Table 3 / Fig. 3
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

One loop takes a campaign from spec to fingerprint, :class:`CampaignRun`
(expand, cached/pending split, record, journal, finish), into a
:class:`CampaignResult` whose aggregation is order-independent:
``run_campaign`` drives one to completion as its executor completes
trials, the daemon (``repro.service``) one per job, all its pending
trials in the pool at once.  A pool child lost on the way is the
executor's business, not the loop's.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.campaign.executors import CampaignExecutor, SerialExecutor
from repro.campaign.results import CampaignResult, TrialResult
from repro.campaign.spec import (CampaignSpec, MatrixSpec, SolverKnobs,
                                 TrialSpec, content_hash, shard_trials)
from repro.campaign.store import CampaignCache, CampaignStore
from repro.config import derive_config
from repro.sanitize import make_lock


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
                         matrix_name=trial.matrix.label,
                         compiled=cache.compiled)
    try:
        return solver.solve(ideal_time=ideal_time)
    finally:
        # The threaded backend owns real worker threads; release them so
        # a 10^4-trial campaign does not accumulate thread pools.
        solver.close()


def run_trial(trial: TrialSpec, cache: CampaignCache) -> TrialResult:
    """Execute one campaign trial and reduce it to its slim record.  An
    ideal trial (``method=None``) is its own baseline: solved once, kept."""
    started = time.perf_counter()  # repro-lint: allow[wall-clock] trial wall_time metric, reported not fingerprinted
    if trial.method is None:
        result = solve_trial(trial, cache)
        ideal_time = keep_baseline(trial.matrix, trial.knobs, result, cache)
    else:
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


def _cached_trial(cache: CampaignCache, key: str,
                  index: int) -> Optional[TrialResult]:
    """The result ``cache`` holds under ``key``, if any, numbered
    ``index``: one persisted by another grid carries that grid's
    numbering, which is a position, not content."""
    result = cache.get_trial(key)
    if result is not None and result.index != index:
        result = dataclasses.replace(result, index=index)
    return result


class TrialRunner:
    """What an executor maps over the pending trials: the trial's result
    — from the cache if it is there, else run, persisted and returned.

    In-process it reads and writes through the cache it was given; sent
    across a pool, the cache arrives as the worker process's own (see
    ``CampaignCache.__reduce__``).  Persisting from inside the worker —
    not the parent — is what makes interrupted campaigns resumable: a
    pool campaign killed mid-stream has every finished trial on disk
    even though the parent never saw its future complete.  Reading first
    is what makes a trial safe to submit twice: resubmitted after its
    pool broke (``campaign.executors``), one that a lost or terminated
    child had persisted is a hit, never a second execution.
    """

    def __init__(self, cache: CampaignCache):
        self.cache = cache

    def __call__(self, trial: TrialSpec) -> TrialResult:
        key = trial.store_key()
        result = _cached_trial(self.cache, key, trial.index)
        if result is None:
            result = run_trial(trial, self.cache)
            self.cache.put_trial(key, result)
        return result


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class CampaignRun:
    """One campaign from expansion to fingerprint: the one place where
    cached trials are split from pending ones, results are recorded and
    the journal is written.

    Constructing one expands ``spec``, restricts it to ``shard``, serves
    what ``cache`` already holds and journals ``start``; :attr:`pending`
    is what is left to execute.  Whoever drives it (from any number of
    threads) hands each result to :meth:`record` and ends with
    :meth:`finish` or :meth:`abandon`.  ``executor`` names the driver in
    the result; ``stamp`` is added to every journal line.
    """

    def __init__(self, spec: CampaignSpec, cache: CampaignCache,
                 executor: str = "serial",
                 shard: Optional[Tuple[int, int]] = None,
                 stamp: Optional[dict] = None):
        self.cache = cache
        self.key = spec.store_key()
        self._stamp = {"key": self.key, **(stamp or {})}
        self._lock = make_lock("CampaignRun.lock")
        trials = spec.expand()
        self.result = CampaignResult(name=spec.name, executor=executor,
                                     spec_key=self.key,
                                     total_trials=len(trials), shard=shard)
        if shard is not None:
            trials = shard_trials(trials, *shard)
        #: Trials this run answers for (the shard's, under ``shard``).
        self.total = len(trials)
        self.pending: List[TrialSpec] = []
        #: Index -> store key of every pending trial not yet recorded.
        self._awaited: Dict[int, str] = {}
        for trial in trials:
            key = trial.store_key()
            cached = _cached_trial(cache, key, trial.index)
            if cached is not None:
                self.result.add(cached)
            else:
                self.pending.append(trial)
                self._awaited[trial.index] = key
        self.cached = self.result.cache_hits = len(self.result)
        self.executed = 0
        self.fingerprint: Optional[str] = None
        self._journal({"event": "start", "spec": spec.describe(),
                       "total": self.result.total_trials,
                       "shard": list(shard) if shard else None,
                       "cached": self.cached, "pending": len(self.pending)})
        self._started = time.perf_counter()  # repro-lint: allow[wall-clock] campaign wall_time metric, reported not fingerprinted

    @property
    def completed(self) -> int:
        return self.cached + self.executed

    def _journal(self, event: dict) -> None:
        self.cache.journal_append(self.key, {**self._stamp, **event})

    def record(self, result: TrialResult) -> int:
        """Fold one executed trial in: the result, the cache's RAM tier
        (its worker wrote the store), one ``trial`` journal line.  Returns
        how many trials are now complete; 0 if this one was not awaited."""
        with self._lock:
            key = self._awaited.pop(result.index, None)
            if key is None:
                return 0
            self.result.add(result)
            self.executed += 1
            completed = self.completed
        self.cache.keep_trial(key, result)
        self._journal({"event": "trial", "index": result.index})
        return completed

    def finish(self) -> CampaignResult:
        """Every trial is in: fingerprint, ``done`` line, the result."""
        if self._awaited:
            raise RuntimeError(
                f"executor {self.result.executor} returned {self.executed} "
                f"results for {len(self.pending)} pending trials "
                f"({self.total} in the shard)")
        self.result.wall_time = time.perf_counter() - self._started  # repro-lint: allow[wall-clock] campaign wall_time metric, reported not fingerprinted
        self.result.executed = self.executed
        self.fingerprint = self.result.fingerprint()
        self.pending = []  # none left: whoever holds the run keeps no specs
        self._journal({"event": "done", "executed": self.executed,
                       "cached": self.cached,
                       "fingerprint": self.fingerprint})
        return self.result

    def abandon(self, event: str, **detail) -> None:
        """Stopping short (``interrupted``, ``cancelled``, ``failed``):
        one journal line saying so and how far the run got."""
        self._journal({"event": event, "completed": self.completed, **detail})


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
    the content-addressed cache: trials already stored are loaded
    instead of dispatched, and every executed trial is persisted by its
    worker the moment it finishes.  A warm re-run of an unchanged
    campaign executes zero trials and reproduces the cold fingerprint
    byte-for-byte.

    ``shard=(i, N)`` restricts execution to the i-th round-robin shard
    of the expanded trial list; :meth:`CampaignResult.merge` combines
    the partial results into an aggregate byte-identical to an
    unsharded run.

    ``trip`` (if given) is called with the number of *executed* (not
    cached) trials after each one; raising
    :class:`~repro.campaign.executors.CampaignInterrupted` from it
    simulates an interruption (see ``TripAfter``).
    """
    executor = executor or SerialExecutor()
    cache = CampaignCache(store)
    run = CampaignRun(spec, cache, executor=executor.describe(), shard=shard)
    for trial_result in executor.run(TrialRunner(cache), run.pending):
        completed = run.record(trial_result)
        if progress is not None:
            progress(trial_result, completed, run.total)
        if trip is not None:
            trip(run.executed)
    return run.finish()
