"""The campaign engine: expand a spec, execute trials, aggregate results.

The execution model keeps workers cheap and results deterministic:

* each worker process rebuilds its problem from the :class:`MatrixSpec`
  (matrices are never pickled across the pool) and memoises both the
  built matrix and the fault-free *ideal* baseline per
  ``(matrix, knobs)`` key, so a process touching 50 trials of the same
  cell pays for one build and one baseline solve;
* the ideal baseline is fully deterministic, so every process computes
  the exact same ``ideal_time`` and trials agree bit-for-bit no matter
  where they ran;
* per-trial randomness comes exclusively from the trial's content-keyed
  :class:`numpy.random.SeedSequence` (see ``campaign.spec``), threaded
  through :class:`~repro.faults.scenarios.ErrorScenario` into the
  injector's private Generator.

With a :class:`~repro.campaign.store.CampaignStore`, the per-process
memoisation gains a persistent second level: built matrices, baselines
and completed trials are looked up by content address before any work
happens, already-completed trials are *never dispatched at all*, and
workers persist each finished trial immediately — which is what makes
campaigns incremental, resumable after an interruption, and shardable
across machines (see ``campaign.store``).

``run_campaign`` streams results as the executor completes them into a
:class:`CampaignResult` whose aggregation is order-independent.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.campaign.executors import CampaignExecutor, SerialExecutor
from repro.campaign.results import CampaignResult, TrialResult
from repro.campaign.spec import (CampaignSpec, MatrixSpec, SolverKnobs,
                                 TrialSpec, content_hash, shard_trials)
from repro.campaign.store import CampaignStore, open_store
from repro.config import derive_config

# ----------------------------------------------------------------------
# per-process memoisation (survives across trials within one worker)
# ----------------------------------------------------------------------
_PROBLEM_CACHE: Dict[MatrixSpec, tuple] = {}
_IDEAL_CACHE: Dict[Tuple[MatrixSpec, SolverKnobs], float] = {}


def _problem(matrix: MatrixSpec,
             store: Optional[CampaignStore] = None) -> tuple:
    if matrix in _PROBLEM_CACHE:
        return _PROBLEM_CACHE[matrix]
    problem = None
    key = None
    if store is not None:
        key = content_hash(matrix.content_token())
        problem = store.get_matrix(key)
    if problem is None:
        problem = matrix.build()
        if store is not None:
            store.put_matrix(key, *problem)
    _PROBLEM_CACHE[matrix] = problem
    return problem


def _make_solver(matrix: MatrixSpec, knobs: SolverKnobs,
                 method: Optional[str], scenario,
                 store: Optional[CampaignStore] = None):
    from repro.core.manager import make_strategy
    from repro.precond.block_jacobi import BlockJacobiPreconditioner
    from repro.solvers.resilient_cg import ResilientCG, SolverConfig
    A, b = _problem(matrix, store=store)
    strategy = None
    if method is not None:
        strategy = make_strategy(method, cost_model=knobs.cost_model,
                                 checkpoint_interval=knobs.checkpoint_interval)
    preconditioner = None
    if knobs.preconditioned:
        preconditioner = BlockJacobiPreconditioner(A,
                                                   page_size=knobs.page_size)
    return ResilientCG(A, b, strategy=strategy,
                       preconditioner=preconditioner, scenario=scenario,
                       config=derive_config(SolverConfig, knobs),
                       matrix_name=matrix.label)


def baseline_key(matrix: MatrixSpec, knobs: SolverKnobs) -> str:
    """Content address of the fault-free baseline of ``(matrix, knobs)``."""
    return content_hash(f"baseline/v1|{matrix.content_token()}|"
                        f"{knobs.content_token()}")


def _ideal_time(matrix: MatrixSpec, knobs: SolverKnobs,
                store: Optional[CampaignStore] = None) -> float:
    """Fault-free baseline solve time (memoised per process, then in the
    store).  The baseline is fully deterministic, so a stored value is
    bit-identical to a recomputed one (``float.hex`` round-trip)."""
    key = (matrix, knobs)
    if key in _IDEAL_CACHE:
        return _IDEAL_CACHE[key]
    skey = None
    if store is not None:
        skey = baseline_key(matrix, knobs)
        cached = store.get_baseline(skey)
        if cached is not None:
            _IDEAL_CACHE[key] = cached
            return cached
    solver = _make_solver(matrix, knobs, None, None, store=store)
    try:
        result = solver.solve()
    finally:
        solver.close()
    if not result.record.converged:
        raise RuntimeError(
            f"ideal baseline did not converge on {matrix.label} "
            f"within {knobs.max_iterations} iterations; the campaign "
            f"overheads would be meaningless")
    ideal = result.record.solve_time
    _IDEAL_CACHE[key] = ideal
    if store is not None:
        store.put_baseline(skey, ideal)
    return ideal


def run_trial(trial: TrialSpec,
              store: Optional[CampaignStore] = None) -> TrialResult:
    """Execute one campaign trial (module-level: picklable for pools)."""
    started = time.perf_counter()  # repro-lint: allow[wall-clock] trial wall_time metric, reported not fingerprinted
    ideal_time = _ideal_time(trial.matrix, trial.knobs, store=store)
    solver = _make_solver(trial.matrix, trial.knobs, trial.method,
                          trial.make_scenario(), store=store)
    try:
        result = solver.solve(ideal_time=ideal_time)
    finally:
        # The threaded backend owns real worker threads; release them so
        # a 10^4-trial campaign does not accumulate thread pools.
        solver.close()
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


class StoreTrialRunner:
    """Picklable trial runner that persists every completed trial.

    Carries only the store *root* across the pool; each worker process
    opens (and caches) its own :class:`CampaignStore` handle on first
    use.  Persisting from inside the worker — not the parent — is what
    makes interrupted campaigns resumable: a chunked campaign killed
    mid-stream has every finished trial on disk even though the parent
    never saw the chunk complete.
    """

    def __init__(self, root):
        self.root = str(root)

    def __call__(self, trial: TrialSpec) -> TrialResult:
        store = open_store(self.root)
        result = run_trial(trial, store=store)
        store.put_trial(trial.store_key(), result)
        return result


def clear_caches() -> None:
    """Drop the per-process memoisation (tests, memory pressure)."""
    _PROBLEM_CACHE.clear()
    _IDEAL_CACHE.clear()


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

    pending = trials
    campaign_key = spec.store_key()
    if store is not None:
        pending = []
        for trial in trials:
            cached = store.get_trial(trial.store_key())
            if cached is not None:
                result.add(cached)
                result.cache_hits += 1
            else:
                pending.append(trial)
        store.journal_append(campaign_key, {
            "event": "start", "key": campaign_key,
            "spec": spec.describe(), "total": total,
            "shard": list(shard) if shard else None,
            "cached": result.cache_hits, "pending": len(pending)})

    runner = run_trial if store is None else StoreTrialRunner(store.root)
    started = time.perf_counter()  # repro-lint: allow[wall-clock] campaign wall_time metric, reported not fingerprinted
    completed = result.cache_hits
    executed = 0
    for trial_result in executor.run(runner, pending):
        completed += 1
        executed += 1
        result.add(trial_result)
        if store is not None:
            store.journal_append(campaign_key, {
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
    if store is not None:
        store.journal_append(campaign_key, {
            "event": "done", "key": campaign_key, "executed": executed,
            "cached": result.cache_hits,
            "fingerprint": result.fingerprint()})
    return result


def run_trials(trials: Sequence[TrialSpec],
               executor: Optional[CampaignExecutor] = None,
               store: Optional[CampaignStore] = None) -> CampaignResult:
    """Execute an explicit trial list (used by the experiment drivers)."""
    executor = executor or SerialExecutor()
    result = CampaignResult(executor=executor.describe())
    runner = run_trial if store is None else StoreTrialRunner(store.root)
    started = time.perf_counter()  # repro-lint: allow[wall-clock] campaign wall_time metric, reported not fingerprinted
    if store is not None:
        pending = []
        for trial in trials:
            cached = store.get_trial(trial.store_key())
            if cached is not None:
                result.add(cached)
                result.cache_hits += 1
            else:
                pending.append(trial)
        trials = pending
    result.extend(executor.run(runner, list(trials)))
    result.executed = len(trials)
    result.wall_time = time.perf_counter() - started  # repro-lint: allow[wall-clock] campaign wall_time metric, reported not fingerprinted
    return result
