"""Rank-runtime tests: the N-rank solver must equal the single-rank one
bit for bit, while really moving halos and reducing over a rank tree."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.manager import make_strategy
from repro.distributed.ranks import RankKernelEngine, RankRuntime
from repro.faults.injector import Injection
from repro.faults.scenarios import ErrorScenario, multi_error_scenario
from repro.matrices.blocked import PageBlockedMatrix
from repro.matrices.sparse import SparseOperator
from repro.matrices.stencil import poisson_3d_27pt, stencil_rhs
from repro.precond import JacobiPreconditioner
from repro.runtime.kernels import LocalKernelEngine
from repro.solvers.resilient_cg import ResilientCG, SolverConfig

pytestmark = pytest.mark.ranks

PAGE = 128


@pytest.fixture(scope="module")
def problem():
    A = poisson_3d_27pt(10)                       # n = 1000, 8 pages
    b = stencil_rhs(A, kind="random", seed=3)
    return A, b


@pytest.fixture(scope="module")
def tau(problem):
    """Ideal solve time, the clock the injection schedules live on."""
    A, b = problem
    with ResilientCG(A, b, config=SolverConfig(page_size=PAGE)) as solver:
        return solver.solve().record.solve_time


def run_solver(A, b, *, ranks, method=None, scenario=None, ideal_time=None,
               tolerance=1e-10, preconditioner=None):
    cfg = SolverConfig(page_size=PAGE, tolerance=tolerance, ranks=ranks)
    strategy = make_strategy(method) if method else None
    with ResilientCG(A, b, strategy=strategy, scenario=scenario,
                     preconditioner=preconditioner, config=cfg) as solver:
        return solver.solve(ideal_time=ideal_time)


def assert_bit_identical(a, b):
    assert np.array_equal(a.x, b.x), "iterates differ bitwise"
    assert a.record.iterations == b.record.iterations
    assert a.record.solve_time == b.record.solve_time
    assert a.record.final_residual == b.record.final_residual
    assert a.stats.pages_recovered == b.stats.pages_recovered
    assert a.stats.pages_unrecoverable == b.stats.pages_unrecoverable
    assert a.stats.contributions_skipped == b.stats.contributions_skipped
    assert a.stats.restarts == b.stats.restarts
    assert a.stats.rollbacks == b.stats.rollbacks


class TestRankEquivalence:
    """The acceptance criterion: 4 ranks == 1 rank, bit for bit."""

    def test_fault_free_solve_bit_identical(self, problem):
        A, b = problem
        single = run_solver(A, b, ranks=1)
        four = run_solver(A, b, ranks=4)
        assert single.converged and four.converged
        assert_bit_identical(single, four)

    @pytest.mark.parametrize("ranks", [2, 3, 4])
    def test_rank_counts_including_non_power_of_two(self, problem, ranks):
        A, b = problem
        single = run_solver(A, b, ranks=1)
        multi = run_solver(A, b, ranks=ranks)
        assert_bit_identical(single, multi)

    @pytest.mark.parametrize("method", ["FEIR", "AFEIR", "Lossy", "ckpt",
                                        "Trivial"])
    def test_fixed_injections_bit_identical(self, problem, tau, method):
        A, b = problem
        injections = [Injection(time=tau * 0.2, vector="x", page=3),
                      Injection(time=tau * 0.5, vector="g", page=5),
                      Injection(time=tau * 0.8, vector="d0", page=1)]
        scenario = multi_error_scenario(injections, name=f"{method}-eq")
        single = run_solver(A, b, ranks=1, method=method, scenario=scenario,
                            ideal_time=tau)
        four = run_solver(A, b, ranks=4, method=method, scenario=scenario,
                         ideal_time=tau)
        touched = (single.stats.pages_recovered + single.stats.restarts
                   + single.stats.pages_unrecoverable)
        assert touched > 0
        assert_bit_identical(single, four)

    def test_rate_based_scenario_bit_identical(self, problem, tau):
        """Error rate > 0: the same seeded schedule drives both solvers."""
        A, b = problem

        def scenario():
            return ErrorScenario(name="rate", normalized_rate=8.0,
                                 seed=np.random.SeedSequence(42))
        single = run_solver(A, b, ranks=1, method="AFEIR",
                            scenario=scenario(), ideal_time=tau)
        four = run_solver(A, b, ranks=4, method="AFEIR",
                         scenario=scenario(), ideal_time=tau)
        assert single.record.faults_injected > 0
        assert_bit_identical(single, four)

    def test_sparse_operator_backend_bit_identical(self, problem):
        """The SciPy-free fast path partitions identically."""
        A, b = problem
        op = SparseOperator.from_scipy(A)
        single = run_solver(op, b, ranks=1)
        four = run_solver(op, b, ranks=4)
        assert_bit_identical(single, four)


class TestMeasuredCommunication:
    def test_halo_and_allreduce_are_measured(self, problem):
        A, b = problem
        result = run_solver(A, b, ranks=4)
        st = result.rank_stats
        assert st is not None and st.ranks == 4
        # One halo exchange per spmv (>= one per iteration) and the two
        # tree allreduces per iteration the paper and ClusterModel charge
        # (rho doubles as ||g||^2 without a preconditioner), every
        # exchange moving real bytes.
        assert st.halo_exchanges >= result.record.iterations
        assert st.allreduces == 2 * result.record.iterations
        assert st.halo_bytes > 0 and st.allreduce_bytes > 0
        assert st.halo_seconds > 0.0 and st.allreduce_seconds > 0.0
        assert len(st.message_samples) > 0
        summary = st.summary()
        assert summary["halo_ms_per_exchange"] > 0.0

    def test_preconditioned_solve_reduces_three_times(self, problem):
        """<g, z> and <g, g> differ once z = M^-1 g: both are reduced."""
        A, b = problem
        result = run_solver(A, b, ranks=4,
                            preconditioner=JacobiPreconditioner(A))
        assert result.converged
        assert result.rank_stats.allreduces >= 3 * result.record.iterations

    def test_single_rank_reports_no_comm(self, problem):
        A, b = problem
        result = run_solver(A, b, ranks=1)
        assert result.rank_stats is None

    def test_recovery_runs_on_owner_rank(self, problem, tau):
        A, b = problem
        # Page 5 of 8 lives in the upper half: with 4 equal strips of 2
        # pages each, its owner is rank 2.
        scenario = multi_error_scenario(
            [Injection(time=tau * 0.4, vector="x", page=5)], name="owner")
        result = run_solver(A, b, ranks=4, method="FEIR", scenario=scenario,
                            ideal_time=tau)
        st = result.rank_stats
        assert st.recoveries >= 1
        assert set(st.recoveries_by_rank) == {2}


class TestRankValidation:
    def test_ranks_must_be_positive(self, problem):
        A, b = problem
        with pytest.raises(ValueError, match="ranks"):
            ResilientCG(A, b, config=SolverConfig(ranks=0))

    def test_threaded_with_ranks_is_a_valid_cell(self, problem):
        # The unified runtime lifted the old "ranks needs the list
        # scheduler" restriction: threaded scheduling composes with the
        # ranks placement, and the cell stays bit-identical.
        A, b = problem
        baseline = run_solver(A, b, ranks=2)
        with ResilientCG(A, b, config=SolverConfig(
                page_size=PAGE, tolerance=1e-10, ranks=2,
                scheduler="threaded", clock="wall", pace=0.0,
                max_threads=4)) as solver:
            threaded = solver.solve()
        assert np.array_equal(threaded.x, baseline.x)
        assert threaded.solve_time == baseline.solve_time

    def test_local_placement_rejects_ranks(self, problem):
        A, b = problem
        with pytest.raises(ValueError, match="placement"):
            ResilientCG(A, b, config=SolverConfig(ranks=2,
                                                  placement="local"))

    def test_more_ranks_than_pages_rejected(self, problem):
        A, b = problem                  # 1000 rows = 8 pages of 128
        with pytest.raises(ValueError, match="aligned"):
            ResilientCG(A, b, config=SolverConfig(ranks=16, page_size=PAGE))


class TestRankRuntimeUnit:
    """Direct kernel-level checks against the local engine."""

    @pytest.fixture(scope="class")
    def engines(self, problem):
        A, _ = problem
        blocked = PageBlockedMatrix(A, page_size=PAGE)
        rank_engine = RankKernelEngine(blocked, ranks=4)
        local = LocalKernelEngine(blocked.A, blocked.n, PAGE)
        yield local, rank_engine
        rank_engine.close()

    def test_spmv_bitwise(self, engines, problem):
        local, ranked = engines
        A, _ = problem
        rng = np.random.default_rng(0)
        d = rng.standard_normal(A.shape[0])
        out_l = np.zeros_like(d)
        out_r = np.zeros_like(d)
        local.spmv(d, out_l)
        ranked.spmv(d, out_r)
        assert np.array_equal(out_l, out_r)

    def test_dot_bitwise_with_skips(self, engines, problem):
        local, ranked = engines
        A, _ = problem
        rng = np.random.default_rng(1)
        u = rng.standard_normal(A.shape[0])
        v = rng.standard_normal(A.shape[0])
        for skip in (frozenset(), {0}, {3, 5}, {7}):
            assert local.dot(u, v, skip) == ranked.dot(u, v, skip)

    def test_masked_axpy_bitwise(self, engines, problem):
        local, ranked = engines
        A, _ = problem
        rng = np.random.default_rng(2)
        y0 = rng.standard_normal(A.shape[0])
        v = rng.standard_normal(A.shape[0])
        for skip in (frozenset(), {2, 6}):
            y_l = y0.copy()
            y_r = y0.copy()
            local.axpy(y_l, 0.37, v, skip)
            ranked.axpy(y_r, 0.37, v, skip)
            assert np.array_equal(y_l, y_r)

    def test_runtime_close_is_idempotent(self, problem):
        A, _ = problem
        blocked = PageBlockedMatrix(A, page_size=PAGE)
        runtime = RankRuntime(blocked, 2)
        runtime.close()
        runtime.close()

    def test_page_owner_mapping(self, problem):
        A, _ = problem
        blocked = PageBlockedMatrix(A, page_size=PAGE)
        with RankRuntime(blocked, 4) as runtime:
            owners = [runtime.page_owner(p) for p in range(8)]
            assert owners == sorted(owners)
            assert set(owners) == {0, 1, 2, 3}
            with pytest.raises(IndexError):
                runtime.page_owner(8)
