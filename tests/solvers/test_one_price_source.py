"""A solve is priced by its ``SolverConfig.cost_model`` alone.

A strategy holds no prices: FEIR, Lossy and ckpt charge their recovery
work with the cost model of the solve they run in.  So a solver built by
hand, ``ResilientCG(A, b, strategy=make_strategy(m),
config=SolverConfig(cost_model=X))``, must price every recovery exactly
as the campaign's one cell pipeline (``solve_trial`` with
``SolverKnobs(cost_model=X)``) does — bit for bit, the related-data
conflict fallback of FEIR included.  ``X`` moves every recovery price
(dense solves, memory traffic, disk), so a strategy that priced at the
default model instead would show in ``recovery_work_time``.
"""

import dataclasses

import numpy as np
import pytest

from repro.campaign.engine import solve_trial
from repro.campaign.spec import MatrixSpec, SolverKnobs, TrialSpec
from repro.campaign.store import CampaignCache
from repro.core.manager import make_strategy
from repro.faults.injector import Injection
from repro.faults.scenarios import multi_error_scenario
from repro.runtime.cost_model import DEFAULT_COST_MODEL
from repro.solvers.resilient_cg import ResilientCG, SolverConfig

PRICES = DEFAULT_COST_MODEL.scaled(dense_flop_rate=4.0e9,
                                   mem_bandwidth=6.0e9, disk_bandwidth=1.0e8)
KNOBS = SolverKnobs(tolerance=1e-8, max_iterations=2000, num_workers=4,
                    page_size=20, cost_model=PRICES)
MATRIX = MatrixSpec.parse("laplacian2d:10")


def trial(method, *, rate=5.0, seed=3, scenario=None):
    return TrialSpec(index=0, matrix=MATRIX, method=method, rate=rate,
                     repetition=0, seed=np.random.SeedSequence(seed),
                     knobs=KNOBS, scenario=scenario)


def conflict_trial():
    """FEIR losing page 2 of both ``x`` and ``g`` at once: the x&g
    related-data conflict, repaired by recomputing all of ``g``."""
    t = 0.3 * solve_trial(trial(None, rate=0.0), CampaignCache()).solve_time
    return trial("FEIR", rate=0.0, scenario=multi_error_scenario(
        [Injection(time=t, vector="x", page=2),
         Injection(time=t, vector="g", page=2)], name="x&g"))


def by_hand(spec):
    """The trial's solve from public API: a hand-made strategy and the
    knobs' prices handed to the solver as a plain ``SolverConfig``."""
    A, b = spec.matrix.build()
    config = SolverConfig(**{field.name: getattr(KNOBS, field.name)
                             for field in dataclasses.fields(SolverConfig)})
    with ResilientCG(A, b, config=config) as ideal:
        ideal_time = ideal.solve().solve_time
    with ResilientCG(A, b, strategy=make_strategy(spec.method),
                     scenario=spec.make_scenario(), config=config) as cg:
        return cg.solve(ideal_time=ideal_time)


def priced(result):
    return (result.solve_time.hex(), result.stats.recovery_work_time.hex(),
            result.record.iterations)


@pytest.mark.parametrize("make", [
    lambda: trial("FEIR"), lambda: trial("Lossy"), lambda: trial("ckpt"),
    conflict_trial], ids=["FEIR", "Lossy", "ckpt", "FEIR-conflict"])
def test_a_hand_built_solver_prices_like_the_campaign(make):
    spec = make()
    campaign = solve_trial(spec, CampaignCache())
    assert campaign.stats.recovery_work_time > 0
    assert priced(by_hand(spec)) == priced(campaign)


def test_the_conflict_case_takes_the_fallback():
    result = solve_trial(conflict_trial(), CampaignCache())
    assert result.stats.pages_unrecoverable == 1
    assert result.stats.restarts == 1
