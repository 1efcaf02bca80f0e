"""A solve's simulated clock is the in-order fold of its ledger.

``_advance_clock`` enters each iteration in ``SolveResult.ledger`` and
advances the clock by that entry alone, so folding the ledger from 0.0
— ``makespan``, ``handler_work`` and ``service`` of each entry, added in
that order — gives ``solve_time`` with ``==``, one entry per iteration.
The check compares no recorded bits, so it holds under every
``OPENBLAS_NUM_THREADS`` setting: over the grid oracle's trials through
one cache (so prefix tapes resume) and from fresh solvers, and for a
zero right-hand side.
"""

import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.campaign.engine import solve_trial
from repro.campaign.store import CampaignCache
from repro.core.manager import make_strategy
from repro.solvers.resilient_cg import ResilientCG

GRID_FIXTURES = Path(__file__).parents[1] / "campaign" / "fixtures"


def load_grid():
    spec = importlib.util.spec_from_file_location(
        "generate_grid_oracle", GRID_FIXTURES / "generate_grid_oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRIALS = load_grid().trials()


def fold(result):
    return functools.reduce(
        lambda clock, e: clock + e.makespan + e.handler_work + e.service,
        result.ledger, 0.0)


def assert_folds(result):
    assert len(result.ledger) == result.record.iterations
    assert fold(result) == result.solve_time


def fresh(trial, ideal_time):
    """``trial`` solved by a solver handed no plan table and no tapes."""
    A, b = trial.matrix.build()
    strategy = scenario = None
    if trial.method is not None:
        strategy = make_strategy(
            trial.method, checkpoint_interval=trial.knobs.checkpoint_interval)
        scenario = trial.make_scenario()
    with ResilientCG(A, b, strategy=strategy, scenario=scenario,
                     config=trial.knobs) as solver:
        return solver.solve(ideal_time=ideal_time)


def test_every_grid_trial_folds_to_its_solve_time(monkeypatch):
    """Through one cache, as a campaign runs them, and from a fresh
    solver; the two ledgers are the same entries."""
    resumes = []
    resume = ResilientCG._resume
    monkeypatch.setattr(ResilientCG, "_resume", lambda self, run, snapshot: (
        resumes.append(snapshot), resume(self, run, snapshot))[1])
    cache = CampaignCache()
    resumed = [solve_trial(trial, cache) for trial in TRIALS]
    assert resumes  # some trials started from a prefix tape
    ideal_time = resumed[0].solve_time
    assert any(result.stats.restarts for result in resumed)
    assert any(e.handler_work for r in resumed for e in r.ledger)
    assert any(e.late for r in resumed for e in r.ledger)
    for trial, through_cache in zip(TRIALS, resumed, strict=True):
        alone = fresh(trial, ideal_time)
        assert_folds(through_cache)
        assert_folds(alone)
        assert [e[1:] for e in through_cache.ledger] == \
            [e[1:] for e in alone.ledger], (trial.method, trial.rate)


@pytest.mark.parametrize("method", [None, "AFEIR"])
def test_a_zero_right_hand_side_has_an_empty_ledger(method):
    A, _ = TRIALS[0].matrix.build()
    strategy = make_strategy(method) if method else None
    with ResilientCG(A, np.zeros(A.shape[0]), strategy=strategy) as solver:
        result = solver.solve()
    assert result.ledger == () and result.solve_time == 0.0
    assert_folds(result)
