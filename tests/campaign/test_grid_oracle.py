"""Every trial of the benchmark's campaign grid, bit for bit.

``fixtures/grid_oracle.json`` holds the iterate's SHA-256, the iteration
count, the simulated solve time and the state breakdown of each trial of
a grid shaped like the campaign benchmark's (see
``fixtures/generate_grid_oracle.py``).  A campaign's fingerprint hashes
aggregates only; this is what sees an iterate or a timeline move.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.campaign.engine import solve_trial
from repro.campaign.store import CampaignCache

FIXTURES = Path(__file__).parent / "fixtures"
ORACLE = json.loads((FIXTURES / "grid_oracle.json").read_text())


def load_generator():
    """The generator's own ``trials``/``observed``: the test measures
    exactly what the fixture recorded."""
    spec = importlib.util.spec_from_file_location(
        "generate_grid_oracle", FIXTURES / "generate_grid_oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generator = load_generator()
TRIALS = generator.trials()


@pytest.fixture(scope="module")
def cache():
    """One cache for the grid, as a campaign has: the ideal time is
    solved once and every trial compiles into one plan table."""
    return CampaignCache()


@pytest.mark.parametrize(
    "index", range(len(ORACLE["cases"])),
    ids=[f"{c['method']}-rate{c['rate']:g}-rep{c['repetition']}"
         for c in ORACLE["cases"]])
def test_trial_matches_the_recorded_grid(index, cache):
    if generator.numerics_stack() != ORACLE["stack"]:
        pytest.skip(f"iterates were recorded on {ORACLE['stack']}")
    if generator.blas_threads() != ORACLE["blas_threads"]:
        recorded = ORACLE["blas_threads"].replace("default", "unset")
        pytest.skip(f"iterates were recorded with OPENBLAS_NUM_THREADS "
                    f"{recorded}; here it is {generator.blas_threads()}")
    case, trial = ORACLE["cases"][index], TRIALS[index]
    assert (trial.method, trial.rate, trial.repetition) == (
        case["method"], case["rate"], case["repetition"])
    observed = generator.observed(solve_trial(trial, cache))
    assert observed == {key: case[key] for key in observed}


def test_the_grid_in_reversed_order_matches_too():
    """Through one fresh cache from the last trial to the first: the
    prefix tapes are recorded by other trials than in expansion order,
    and each trial still reads as recorded."""
    if generator.numerics_stack() != ORACLE["stack"]:
        pytest.skip(f"iterates were recorded on {ORACLE['stack']}")
    if generator.blas_threads() != ORACLE["blas_threads"]:
        pytest.skip("iterates were recorded under another "
                    "OPENBLAS_NUM_THREADS setting")
    reversed_cache = CampaignCache()
    for case, trial in reversed(list(zip(ORACLE["cases"], TRIALS,
                                         strict=True))):
        observed = generator.observed(solve_trial(trial, reversed_cache))
        assert observed == {key: case[key] for key in observed}, (
            trial.method, trial.rate, trial.repetition)


def test_the_grid_reaches_both_kinds_of_iteration():
    """The oracle pins undisturbed iterations (the ideal run) and
    disturbed ones at every rate."""
    cases = ORACLE["cases"]
    assert cases[0]["method"] is None and cases[0]["faults_detected"] == 0
    for rate in generator.RATES:
        assert any(c["rate"] == rate and c["faults_detected"] > 0
                   for c in cases)
