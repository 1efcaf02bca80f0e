"""Tests for the resilient task-decomposed CG (fault-free behaviour)."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.manager import make_strategy
from repro.matrices.laplacian import laplacian_2d
from repro.matrices.stencil import stencil_rhs
from repro.precond.block_jacobi import BlockJacobiPreconditioner
from repro.solvers.reference import conjugate_gradient
from repro.solvers.resilient_cg import ResilientCG, SolverConfig


@pytest.fixture(scope="module")
def problem():
    A = laplacian_2d(32)                 # n = 1024
    b = stencil_rhs(A, kind="random", seed=1)
    return A, b


def config(**overrides):
    defaults = dict(num_workers=8, page_size=128, tolerance=1e-10,
                    record_history=True)
    defaults.update(overrides)
    return SolverConfig(**defaults)


class TestIdealSolver:
    def test_converges_to_reference_solution(self, problem):
        A, b = problem
        res = ResilientCG(A, b, config=config()).solve()
        ref = conjugate_gradient(A, b)
        assert res.converged
        np.testing.assert_allclose(res.x, ref.x, atol=1e-6)

    def test_iteration_count_matches_reference(self, problem):
        A, b = problem
        res = ResilientCG(A, b, config=config()).solve()
        ref = conjugate_gradient(A, b)
        assert abs(res.record.iterations - ref.record.iterations) <= 2

    def test_simulated_time_is_positive_and_monotone(self, problem):
        A, b = problem
        res = ResilientCG(A, b, config=config()).solve()
        times = res.record.history.times
        assert times[0] == 0.0
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:], strict=False))

    def test_ideal_iteration_time_consistent_with_total(self, problem):
        A, b = problem
        solver = ResilientCG(A, b, config=config())
        res = solver.solve()
        t_iter = solver.planner.ideal_iteration_time()
        assert res.solve_time == pytest.approx(t_iter * res.record.iterations,
                                               rel=0.05)

    def test_rhs_length_validation(self, problem):
        A, b = problem
        with pytest.raises(ValueError):
            ResilientCG(A, b[:-1], config=config())

    def test_zero_rhs(self, problem):
        A, _ = problem
        res = ResilientCG(A, np.zeros(A.shape[0]), config=config()).solve()
        assert res.converged and res.record.iterations == 0

    def test_more_workers_is_not_slower(self, problem):
        A, b = problem
        t2, t8 = (ResilientCG(A, b, config=config(num_workers=workers))
                  .planner.ideal_iteration_time() for workers in (2, 8))
        assert t8 <= t2

    def test_trace_accounts_all_iterations(self, problem):
        A, b = problem
        res = ResilientCG(A, b, config=config()).solve()
        assert res.trace.task_count > 0
        assert res.trace.breakdown.total > 0


class TestFaultFreeOverheads:
    """Table 2 behaviour: ordering of the fault-free overheads."""

    @pytest.fixture(scope="class")
    def overheads(self, problem):
        A, b = problem
        ideal = ResilientCG(A, b, config=config()).solve()
        out = {"ideal": ideal.solve_time}
        for name in ("FEIR", "AFEIR", "Lossy", "Trivial"):
            res = ResilientCG(A, b, strategy=make_strategy(name),
                              config=config()).solve()
            out[name] = res.solve_time
            assert res.converged
        ckpt = ResilientCG(A, b, strategy=make_strategy("ckpt",
                                                        checkpoint_interval=50),
                           config=config()).solve()
        out["ckpt"] = ckpt.solve_time
        return out

    def test_signal_handler_methods_have_no_overhead(self, overheads):
        assert overheads["Lossy"] == pytest.approx(overheads["ideal"], rel=1e-9)
        assert overheads["Trivial"] == pytest.approx(overheads["ideal"], rel=1e-9)

    def test_afeir_cheaper_than_feir(self, overheads):
        assert overheads["AFEIR"] < overheads["FEIR"]

    def test_feir_overhead_is_small(self, overheads):
        overhead = (overheads["FEIR"] - overheads["ideal"]) / overheads["ideal"]
        assert 0.0 < overhead < 0.15

    def test_checkpointing_is_most_expensive(self, overheads):
        assert overheads["ckpt"] > overheads["FEIR"]
        assert overheads["ckpt"] > 1.05 * overheads["ideal"]

    def test_all_methods_converge_identically(self, problem):
        A, b = problem
        ideal = ResilientCG(A, b, config=config()).solve()
        for name in ("FEIR", "AFEIR"):
            res = ResilientCG(A, b, strategy=make_strategy(name),
                              config=config()).solve()
            assert res.record.iterations == ideal.record.iterations


class TestPreconditionedSolver:
    def test_pcg_converges_in_fewer_iterations(self, problem):
        A, b = problem
        plain = ResilientCG(A, b, config=config()).solve()
        M = BlockJacobiPreconditioner(A, page_size=128)
        pcg = ResilientCG(A, b, preconditioner=M, config=config()).solve()
        assert pcg.converged
        assert pcg.record.iterations < plain.record.iterations

    def test_pcg_with_feir_matches_ideal_pcg(self, problem):
        A, b = problem
        M = BlockJacobiPreconditioner(A, page_size=128)
        ideal = ResilientCG(A, b, preconditioner=M, config=config()).solve()
        feir = ResilientCG(A, b, preconditioner=M,
                           strategy=make_strategy("FEIR"),
                           config=config()).solve()
        assert feir.converged
        assert feir.record.iterations == ideal.record.iterations
        np.testing.assert_allclose(feir.x, ideal.x, atol=1e-8)

    def test_method_names(self, problem):
        A, b = problem
        M = BlockJacobiPreconditioner(A, page_size=128)
        assert ResilientCG(A, b, config=config())._method_name() == "CG-ideal"
        assert ResilientCG(A, b, preconditioner=M,
                           strategy=make_strategy("FEIR"),
                           config=config())._method_name() == "PCG-FEIR"


@given(n=st.integers(0, 3000), seed=st.integers(0, 2 ** 32 - 1),
       b_norm=st.floats(1e-100, 1e100))
@settings(max_examples=80, deadline=None)
def test_relative_residual_is_the_norm_it_replaced(n, seed, b_norm):
    """``sqrt(g . g) / ||b||`` against ``np.linalg.norm(g) / ||b||``."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n) * 10.0 ** rng.uniform(-100, 100, n)
    run = SimpleNamespace(b_norm=b_norm, state=SimpleNamespace(
        vectors={"g": SimpleNamespace(array=g)}))
    solver = ResilientCG(np.eye(1), np.ones(1))
    assert solver._relative_residual(run).hex() == \
        float(np.linalg.norm(g) / b_norm).hex()


class TestFinalResidual:
    """``final_residual`` is ``||b - A x|| / ||b||`` of the returned ``x``,
    bit for bit: reused from the convergence check that ended the solve,
    recomputed on any other exit."""

    @staticmethod
    def fresh(solver, result, b):
        return float(np.linalg.norm(b - solver.A @ result.x)
                     / float(np.linalg.norm(b)))

    @pytest.mark.parametrize("method", [None, "FEIR", "Lossy"])
    def test_a_converged_exit_reuses_its_true_residual(self, problem, method,
                                                       monkeypatch):
        A, b = problem
        solver = ResilientCG(A, b, config=config(),
                             strategy=make_strategy(method) if method else None)
        computed = []
        original = ResilientCG._true_relative_residual

        def counting(self, run):
            computed.append(original(self, run))
            return computed[-1]

        monkeypatch.setattr(ResilientCG, "_true_relative_residual", counting)
        result = solver.solve()
        assert result.converged
        assert result.record.final_residual.hex() == \
            self.fresh(solver, result, b).hex()
        # the check that converged is the last computation, not a repeat
        assert computed[-1] is result.record.final_residual

    def test_a_max_iterations_exit_recomputes_it(self, problem):
        A, b = problem
        solver = ResilientCG(A, b, config=config(max_iterations=7))
        result = solver.solve()
        assert not result.converged and result.record.iterations == 7
        assert result.record.final_residual.hex() == \
            self.fresh(solver, result, b).hex()
