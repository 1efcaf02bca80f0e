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
  (matrices are never pickled across the pool, nor stored) and keeps the
  built matrix and the baseline in its process's cache, so a process
  touching 50 trials of the same cell pays for one build and one
  baseline solve;
* the ideal baseline is fully deterministic, so every process computes
  the exact same ``ideal_time`` and trials agree bit-for-bit no matter
  where they ran;
* per-trial randomness comes exclusively from the trial's content-keyed
  :class:`numpy.random.SeedSequence` (see ``campaign.spec``), threaded
  through :class:`~repro.faults.scenarios.ErrorScenario` into the
  injector's private Generator.

Over a :class:`~repro.campaign.store.CampaignStore` the cache's RAM tier
has a persistent second level for outcomes: baselines and completed
trials are looked up by content address before any work happens,
already-completed trials are *never dispatched at all*, and workers
persist each finished trial immediately — which is what makes campaigns
incremental, resumable after an interruption, and shardable across
machines, the shards meeting in the store (see ``campaign.store``).
There is no module state here: a fresh cache (a fresh ``run_campaign``
call, a fresh store) is a cold one.

One loop takes a campaign from spec to fingerprint, :class:`CampaignRun`
(key, cached/pending split, record, journal, finish), into a
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
                                 TrialSpec, content_hash)
from repro.campaign.store import CampaignCache, CampaignStore
from repro.sanitize import make_lock


# ----------------------------------------------------------------------
# one cell: problem, baseline, solver, solve
# ----------------------------------------------------------------------
#: Prefix-tape keys (problem, knobs, method) a cache keeps, the least
#: recently used dropped first: a benchmark pass uses 4, and a cache that
#: outlives its grid (a daemon's pool child) stays bounded.
TAPE_KEYS = 8


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
    A trial's solver is handed the cache's prefix tapes of its problem,
    knobs and method (``CampaignCache.tapes``, at most :data:`TAPE_KEYS`
    keys): it starts at the latest snapshot before its first injection,
    bit for bit as from iteration 0.
    """
    from repro.core.manager import make_strategy
    from repro.precond.block_jacobi import BlockJacobiPreconditioner
    from repro.solvers.resilient_cg import ResilientCG
    knobs = trial.knobs
    A, b = _problem(trial.matrix, cache)
    strategy = scenario = ideal_time = tapes = None
    if trial.method is not None:
        ideal_time = _ideal_time(trial.matrix, knobs, cache)
        strategy = make_strategy(trial.method,
                                 checkpoint_interval=knobs.checkpoint_interval)
        scenario = trial.make_scenario()
        key = (trial.matrix.content_token(), knobs.content_token(),
               trial.method)
        tapes = cache.tapes[key] = cache.tapes.pop(key, {})  # now newest
        if len(cache.tapes) > TAPE_KEYS:
            del cache.tapes[next(iter(cache.tapes))]
    preconditioner = None
    if knobs.preconditioned:
        preconditioner = BlockJacobiPreconditioner(A,
                                                   page_size=knobs.page_size)
    solver = ResilientCG(A, b, strategy=strategy,
                         preconditioner=preconditioner, scenario=scenario,
                         config=knobs,
                         matrix_name=trial.matrix.label,
                         compiled=cache.compiled, tapes=tapes)
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
    record, stats = result.record, result.stats
    return TrialResult(
        index=trial.index, matrix=trial.matrix.label, method=trial.method,
        rate=trial.rate, repetition=trial.repetition,
        converged=record.converged, iterations=record.iterations,
        solve_time=record.solve_time, ideal_time=ideal_time,
        final_residual=record.final_residual,
        faults_injected=record.faults_injected,
        faults_detected=record.faults_detected,
        restarts=stats.restarts, rollbacks=stats.rollbacks,
        pages_recovered=stats.pages_recovered,
        pages_unrecoverable=stats.pages_unrecoverable,
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

    Constructing one enumerates the store keys of ``spec``'s trials
    (of ``shard``'s), serves what ``cache`` already holds and journals
    ``start``; :attr:`pending` is what is left to execute, the only
    trials built as :class:`TrialSpec`.  Whoever drives it (from any
    number of threads) hands each result to :meth:`record` and ends with
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
        keys = spec.trial_keys(shard)
        self.result = CampaignResult(name=spec.name, executor=executor)
        #: Trials this run answers for (the shard's, under ``shard``).
        self.total = len(keys)
        #: Index -> store key of every pending trial not yet recorded.
        self._awaited: Dict[int, str] = {}
        hits: List[TrialResult] = []
        for index, key in keys:
            cached = _cached_trial(cache, key, index)
            if cached is not None:
                hits.append(cached)
            else:
                self._awaited[index] = key
        self.result.extend(hits)
        # Only a trial the cache does not answer is built (its seed too).
        self.pending: List[TrialSpec] = (spec.trials_at(self._awaited)
                                         if self._awaited else [])
        self.cached = self.result.cache_hits = len(hits)
        self.executed = 0
        self.fingerprint: Optional[str] = None
        self._journal({"event": "start", "spec": spec.describe(),
                       "total": spec.num_trials,
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
                 shard: Optional[Tuple[int, int]] = None
                 ) -> CampaignResult:
    """Expand ``spec`` and execute every trial through ``executor``.

    ``progress`` (if given) is called after each executed trial is
    recorded with ``(trial_result, completed_count, total_count)`` —
    trials may complete out of order under the pool executors.  An
    exception it raises stops the campaign there, every trial recorded
    so far persisted.

    ``store`` (a :class:`~repro.campaign.store.CampaignStore`) enables
    the content-addressed cache: trials already stored are loaded
    instead of dispatched, and every executed trial is persisted by its
    worker the moment it finishes.  A warm re-run of an unchanged
    campaign executes zero trials and reproduces the cold fingerprint
    byte-for-byte.

    ``shard=(i, N)`` restricts the run to the i-th round-robin shard of
    the expanded trial list.  Shards meet in the store: an unsharded run
    over a store holding every shard's trials (one store, or several
    combined by a no-clobber copy of ``trials/`` and ``baselines/``)
    executes nothing and is byte-identical to a cold unsharded run.
    """
    executor = executor or SerialExecutor()
    cache = CampaignCache(store)
    run = CampaignRun(spec, cache, executor=executor.describe(), shard=shard)
    for trial_result in executor.run(TrialRunner(cache), run.pending):
        completed = run.record(trial_result)
        if progress is not None:
            progress(trial_result, completed, run.total)
    return run.finish()
