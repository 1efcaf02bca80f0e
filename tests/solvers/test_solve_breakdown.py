"""A solve's per-state breakdown is derived on first read.

``SolveResult.trace`` sums the timelines of the schedules the solve
made, in iteration order, when someone reads it: a campaign trial never
does, so it never pays for it.  These tests count the derivations, pin
the derived breakdown to the solve oracle, and check what the solve
holds for it.
"""

import gc
import importlib.util
import json
import pickle
from functools import cached_property
from pathlib import Path

import pytest

from repro.campaign.engine import run_trial
from repro.campaign.spec import CampaignSpec, MatrixSpec, SolverKnobs
from repro.campaign.store import CampaignCache
from repro.runtime import scheduler
from repro.solvers import cg_types
from repro.solvers.cg_types import SolveResult

FIXTURES = Path(__file__).parent / "fixtures"
BREAKDOWN = ("useful", "runtime", "idle", "recovery", "checkpoint",
             "communication")


def load_generator():
    spec = importlib.util.spec_from_file_location(
        "generate_solve_oracle", FIXTURES / "generate_solve_oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generator = load_generator()
ORACLE = json.loads((FIXTURES / "solve_oracle.json").read_text())


@pytest.fixture(scope="module")
def ideal_time():
    return generator.solve(None).solve_time


@pytest.fixture
def derivations(monkeypatch):
    """Counts breakdown derivations: ``"Timeline"`` for a schedule's
    (``ScheduleResult.trace`` included), ``"SolveResult"`` for a solve's."""
    counted = []
    derive_timeline = scheduler.breakdown

    def counting_timeline(timeline):
        counted.append("Timeline")
        return derive_timeline(timeline)

    for module in (scheduler, cg_types):
        monkeypatch.setattr(module, "breakdown", counting_timeline)
    derive_solve = SolveResult.trace.func

    def counting_solve(self):
        counted.append("SolveResult")
        return derive_solve(self)

    prop = cached_property(counting_solve)
    prop.__set_name__(SolveResult, "trace")
    monkeypatch.setattr(SolveResult, "trace", prop)
    return counted


def trace_bits(trace):
    return ({key: getattr(trace.breakdown, key).hex() for key in BREAKDOWN},
            trace.wall_time.hex(), trace.task_count, trace.num_workers)


def faulted_trials():
    spec = CampaignSpec(
        matrices=[MatrixSpec.parametric("laplacian2d", nx=20, ny=20)],
        methods=["FEIR", "AFEIR", "Lossy", "ckpt"], rates=[20.0],
        repetitions=1, seed=11,
        knobs=SolverKnobs(tolerance=1e-8, max_iterations=4000, page_size=50))
    return spec.expand()


def test_a_campaign_trial_derives_no_breakdown(derivations):
    cache = CampaignCache()
    results = [run_trial(trial, cache) for trial in faulted_trials()]
    assert all(r.faults_detected > 0 for r in results)
    assert derivations == []


@pytest.mark.parametrize(
    "case", [c for c in ORACLE["cases"] if c["rate"] == 20.0],
    ids=lambda c: f"{c['method']}-rate{c['rate']:g}")
def test_a_solve_derives_its_breakdown_once_on_read(case, derivations):
    """Nothing is derived until ``trace`` is read, then each timeline the
    solve holds once; the sum is the solve oracle's, bit for bit (the
    oracle's whole-solve test reads it the same way, uncounted)."""
    result = generator.solve(case["method"], case["rate"], case["seed"],
                             case["preconditioned"],
                             ideal_time=float.fromhex(case["ideal_time"]))
    assert derivations == []
    trace = result.trace
    assert derivations.count("SolveResult") == 1
    assert derivations.count("Timeline") == \
        len({id(t) for t in result.timelines})
    assert result.trace is trace and derivations.count("SolveResult") == 1
    if (generator.numerics_stack() == ORACLE["stack"]
            and generator.blas_threads() == generator.RECORDED_BLAS_THREADS):
        assert {key: getattr(trace.breakdown, key).hex()
                for key in BREAKDOWN} == case["breakdown"]


@pytest.mark.parametrize("read_first", [False, True])
def test_a_pickled_result_round_trips_its_trace(read_first, ideal_time):
    result = generator.solve("AFEIR", 50.0, 13, preconditioned=True,
                             ideal_time=ideal_time)
    if read_first:
        result.trace
    clone = pickle.loads(pickle.dumps(result))
    assert trace_bits(clone.trace) == trace_bits(result.trace)
    assert clone.timelines == ()  # the derived trace travels, not its parts
    assert clone.x.tobytes() == result.x.tobytes()


def test_undisturbed_iterations_share_one_timeline(ideal_time):
    """What the solve holds for its breakdown: one timeline reference per
    iteration; the fault-free ones are one shared timeline, so a
    disturbed iteration is the only one that keeps a timeline of its
    own."""
    clean = generator.solve(None)
    assert len(clean.timelines) == clean.record.iterations
    assert len({id(t) for t in clean.timelines}) == 1

    faulted = generator.solve("FEIR", 5.0, 11, ideal_time=ideal_time)
    assert faulted.record.faults_detected > 0
    assert len(faulted.timelines) == faulted.record.iterations
    shared = max(set(map(id, faulted.timelines)),
                 key=[id(t) for t in faulted.timelines].count)
    own = [t for t in faulted.timelines if id(t) != shared]
    assert 0 < len(own) < faulted.record.iterations
    assert len({id(t) for t in own}) == len(own)  # none held twice


def test_the_held_timelines_keep_no_plan_alive(ideal_time):
    """A timeline is a plain tuple of numbers: once the collector has
    looked at them it tracks none of them, so a kept result holds no
    reference to its solver's plans and adds nothing to a full
    collection's work."""
    faulted = generator.solve("AFEIR", 20.0, 11, ideal_time=ideal_time)
    assert len({id(t) for t in faulted.timelines}) > 1
    gc.collect()  # a tuple is untracked once its items are: one pass
    gc.collect()  # per level of nesting, whatever order the list is in
    assert not any(gc.is_tracked(t) for t in faulted.timelines)
