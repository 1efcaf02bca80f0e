"""The unified runtime's equivalence matrix.

The repo's central invariant, stated over the runtime cells of
:mod:`repro.runtime.runtime`: every (scheduler x placement x clock)
cell — including threaded scheduling over rank-sharded kernels —
produces bit-identical iterates, solve times and recovery
decisions, and byte-identical campaign fingerprints.
"""

from __future__ import annotations

import pytest

from repro.core.manager import make_strategy
from repro.campaign.engine import run_campaign
from repro.campaign.executors import SerialExecutor
from repro.campaign.spec import CampaignSpec, SolverKnobs
from repro.faults.injector import Injection
from repro.faults.scenarios import multi_error_scenario
from repro.matrices.laplacian import laplacian_2d
from repro.matrices.sparse import SparseOperator
from repro.matrices.stencil import stencil_rhs
from repro.runtime.runtime import RuntimeSpec, resolve_runtime_spec
from repro.solvers.resilient_cg import ResilientCG, SolverConfig

pytestmark = pytest.mark.ranks

PAGE = 16

#: Every runtime cell exercised by the matrix, as (scheduler, placement,
#: clock, ranks).  The first entry is the reference cell every other one
#: must match bit for bit; the (threaded, ranks, *) cells are the ones
#: the pre-unification runtime rejected outright.
CELLS = [
    ("list", "local", "simulated", 1),
    ("list", "local", "wall", 1),
    ("list", "ranks", "simulated", 2),
    ("list", "ranks", "simulated", 3),
    ("list", "ranks", "wall", 4),
    ("list", "ranks", "wall", 1),
    ("threaded", "local", "simulated", 1),
    ("threaded", "local", "wall", 1),
    ("threaded", "ranks", "simulated", 2),
    ("threaded", "ranks", "wall", 2),
    ("threaded", "ranks", "wall", 4),
]


@pytest.fixture(scope="module")
def problem():
    A = laplacian_2d(12)                          # n = 144, 9 pages of 16
    b = stencil_rhs(A, kind="random", seed=11)
    return A, b


@pytest.fixture(scope="module")
def sparse_problem(problem):
    A, b = problem
    return SparseOperator.from_scipy(A), b


def cell_config(scheduler, placement, clock, ranks):
    return SolverConfig(page_size=PAGE, tolerance=1e-8, num_workers=4,
                        pace=0.0, scheduler=scheduler, placement=placement,
                        clock=clock, ranks=ranks)


def solve_cell(A, b, method, cell, tau=None):
    scheduler, placement, clock, ranks = cell
    strategy = make_strategy(method) if method else None
    scenario = None
    if method:
        scenario = multi_error_scenario(
            [Injection(time=0.0002, vector="x", page=4)],
            name=f"matrix-{method}")
    with ResilientCG(A, b, strategy=strategy, scenario=scenario,
                     config=cell_config(*cell)) as solver:
        return solver.solve(ideal_time=tau)


def result_key(res):
    """Everything a cell must reproduce bit for bit."""
    return (res.x.tobytes(), res.record.iterations, res.record.solve_time,
            res.record.final_residual, res.stats.pages_recovered,
            res.stats.pages_unrecoverable, res.stats.contributions_skipped,
            res.stats.restarts, res.stats.rollbacks)


def assert_one_fold(res, cell):
    """A cell's measured side is one fold of its runs: one run per
    re-enacted iteration, three recovery scans per run, and the wall
    clock read from the wall trace."""
    scheduler, _, clock, _ = cell
    summary = res.window_summary
    reenacted = scheduler == "threaded" or clock == "wall"
    assert summary["runs"] == (res.record.iterations if reenacted else 0)
    assert summary["recovery_scans"] == 3 * summary["runs"]
    if clock == "wall":
        assert res.wall_clock == res.wall_trace.wall_time > 0.0
    else:
        assert (res.wall_clock, res.wall_trace) == (0.0, None)


class TestSpecResolution:
    def test_defaults_are_the_reference_cell(self):
        assert resolve_runtime_spec() == RuntimeSpec(
            scheduler="list", placement="local", clock="simulated", ranks=1)

    def test_axis_values_are_normalised(self):
        spec = resolve_runtime_spec(scheduler=" Threaded ", clock="WALL")
        assert (spec.scheduler, spec.clock) == ("threaded", "wall")

    def test_ranks_imply_the_ranks_placement(self):
        assert resolve_runtime_spec(ranks=3).placement == "ranks"

    def test_single_strip_rank_placement_is_a_cell(self):
        spec = resolve_runtime_spec(placement="ranks", ranks=1)
        assert spec.placement == "ranks" and spec.ranks == 1

    def test_local_placement_rejects_ranks_naming_the_axis(self):
        with pytest.raises(ValueError, match="placement"):
            resolve_runtime_spec(placement="local", ranks=2)

    def test_axis_validation_names_the_axis(self):
        for axis, value in (("scheduler", "magic"), ("placement", "cloud"),
                            ("clock", "sundial")):
            with pytest.raises(ValueError, match=f"{axis} axis"):
                resolve_runtime_spec(**{axis: value})
        with pytest.raises(ValueError, match="ranks must be >= 1"):
            resolve_runtime_spec(ranks=0)

    def test_reenactment_flags(self):
        assert not resolve_runtime_spec().runs_reenactment
        assert resolve_runtime_spec(clock="wall").runs_reenactment
        assert resolve_runtime_spec(scheduler="threaded",
                                    clock="simulated").runs_reenactment
        assert not resolve_runtime_spec(clock="simulated").measures_wall
        assert resolve_runtime_spec(clock="wall").measures_wall


class TestSolverRuntime:
    def test_threaded_ranks_cell_composes_and_closes_twice(self, problem):
        A, b = problem
        solver = ResilientCG(A, b, config=cell_config("threaded", "ranks",
                                                      "wall", 2))
        assert solver.planner.spec == RuntimeSpec("threaded", "ranks",
                                                  "wall", 2)
        assert solver.engine.ranks == 2
        assert solver.planner.executor.name == "threaded"
        assert solver.solve().converged
        solver.close()
        solver.close()              # idempotent: threads already joined


class TestEquivalenceMatrix:
    """Bit-identical results across every cell, both matrix backends."""

    @pytest.mark.parametrize("method", ["FEIR", "AFEIR"])
    def test_all_cells_bit_identical_scipy(self, problem, method):
        A, b = problem
        first = solve_cell(A, b, method, CELLS[0])
        assert_one_fold(first, CELLS[0])
        reference = result_key(first)
        for cell in CELLS[1:]:
            res = solve_cell(A, b, method, cell)
            assert result_key(res) == reference, \
                f"cell {cell} diverged from the reference cell"
            assert_one_fold(res, cell)

    @pytest.mark.parametrize("method", ["FEIR", "AFEIR"])
    def test_all_cells_bit_identical_sparse_operator(self, sparse_problem,
                                                     method):
        A, b = sparse_problem
        reference = result_key(solve_cell(A, b, method, CELLS[0]))
        for cell in CELLS[1:]:
            assert result_key(solve_cell(A, b, method, cell)) == reference, \
                f"cell {cell} diverged from the reference cell"

    def test_fault_free_cells_bit_identical(self, problem):
        A, b = problem
        reference = result_key(solve_cell(A, b, None, CELLS[0]))
        for cell in CELLS[1:]:
            assert result_key(solve_cell(A, b, None, cell)) == reference

    def test_threaded_ranks_wall_measures_halo_overlap(self, problem):
        """The unexpressible cell's payoff: AFEIR's recovery scan
        measurably overlaps the halo exchange; FEIR's never does."""
        A, b = problem
        afeir = solve_cell(A, b, "AFEIR", ("threaded", "ranks", "wall", 2))
        feir = solve_cell(A, b, "FEIR", ("threaded", "ranks", "wall", 2))
        assert afeir.window_summary["halo_overlapped_recoveries"] > 0
        assert feir.window_summary["halo_overlapped_recoveries"] == 0

    def test_threaded_ranks_wall_measures_halo_overlap_on_one_cpu(
            self, problem, one_cpu):
        """One usable CPU still gives the backend two lanes, so the
        overlap is still there to measure."""
        self.test_threaded_ranks_wall_measures_halo_overlap(problem)

    def test_simulated_clock_reports_no_wall_data(self, problem):
        A, b = problem
        res = solve_cell(A, b, "AFEIR", ("threaded", "ranks", "simulated", 2))
        assert res.wall_clock == 0.0
        # the re-enactment still ran (races exercised), it just isn't
        # reported: the monitor saw one run per iteration
        assert res.window_summary["runs"] == res.record.iterations


def matrix_campaign_spec():
    return CampaignSpec(
        matrices=["laplacian2d:10"], methods=("FEIR", "AFEIR"),
        rates=(2.0,), repetitions=1, seed=42,
        knobs=SolverKnobs(tolerance=1e-8, max_iterations=2000,
                          num_workers=4, page_size=20),
        name="runtime-matrix")


class TestCampaignFingerprints:
    """Campaign fingerprints are byte-identical across runtime cells."""

    def test_fingerprints_identical_across_cells(self):
        cells = [
            dict(),                                        # reference
            dict(scheduler="threaded", clock="simulated", pace=0.0),
            dict(ranks=2, pace=0.0),
            dict(scheduler="threaded", placement="ranks", ranks=2,
                 clock="wall", pace=0.0),
        ]
        fingerprints = []
        for knob_overrides in cells:
            spec = matrix_campaign_spec()
            spec = CampaignSpec(
                matrices=spec.matrices, methods=spec.methods,
                rates=spec.rates, repetitions=spec.repetitions,
                seed=spec.seed, name=spec.name,
                knobs=SolverKnobs(tolerance=1e-8, max_iterations=2000,
                                  num_workers=4, page_size=20,
                                  **knob_overrides))
            result = run_campaign(spec, executor=SerialExecutor())
            fingerprints.append(result.fingerprint())
        assert len(set(fingerprints)) == 1, \
            f"fingerprints diverged across cells: {fingerprints}"


@pytest.mark.stress
class TestRaceStress:
    """Repeat the hardest cell to shake out scheduling races."""

    @pytest.mark.parametrize("repeat", range(5))
    def test_threaded_ranks_repeats_stay_bit_identical(self, problem, repeat):
        A, b = problem
        reference = result_key(solve_cell(A, b, "AFEIR", CELLS[0]))
        cell = ("threaded", "ranks", "wall", 3)
        assert result_key(solve_cell(A, b, "AFEIR", cell)) == reference
