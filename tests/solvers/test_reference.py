"""Tests for the reference CG and PCG (Listings 1 and 5)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.matrices.sparse import SparseOperator
from repro.precond.block_jacobi import BlockJacobiPreconditioner
from repro.solvers.reference import (conjugate_gradient,
                                     preconditioned_conjugate_gradient)


class TestConjugateGradient:
    def test_solves_spd_system(self, small_spd_system):
        A, b, x_star = small_spd_system
        result = conjugate_gradient(A, b, tol=1e-10)
        assert result.converged
        np.testing.assert_allclose(result.x, x_star, atol=1e-6)

    def test_residual_history_is_recorded(self, small_spd_system):
        A, b, _ = small_spd_system
        result = conjugate_gradient(A, b, tol=1e-10)
        history = result.record.history
        assert len(history) == result.iterations + 1
        assert history.residuals[0] > history.final_residual

    def test_superlinear_like_decrease(self, small_spd_system):
        """Later residuals should be (much) smaller than early ones."""
        A, b, _ = small_spd_system
        history = conjugate_gradient(A, b, tol=1e-12).record.history
        assert history.residuals[-1] < 1e-6 * history.residuals[1]

    def test_zero_rhs(self, small_spd_system):
        A, _, _ = small_spd_system
        result = conjugate_gradient(A, np.zeros(A.shape[0]))
        assert result.converged and result.iterations == 0

    def test_initial_guess(self, small_spd_system):
        A, b, x_star = small_spd_system
        result = conjugate_gradient(A, b, x0=x_star)
        assert result.converged
        assert result.iterations <= 1

    def test_max_iterations_respected(self, small_spd_system):
        A, b, _ = small_spd_system
        result = conjugate_gradient(A, b, tol=1e-14, max_iterations=3)
        assert result.iterations <= 3
        assert not result.converged

    def test_dimension_mismatch(self, small_spd_system):
        A, b, _ = small_spd_system
        with pytest.raises(ValueError):
            conjugate_gradient(A, b[:-1])

    def test_non_spd_breakdown_reported(self):
        A = sp.diags([1.0, -1.0, 1.0]).tocsr()
        b = np.ones(3)
        result = conjugate_gradient(A, b, max_iterations=10)
        assert not result.converged

    def test_callback_invoked(self, small_spd_system):
        A, b, _ = small_spd_system
        calls = []
        conjugate_gradient(A, b, callback=lambda it, res: calls.append(it))
        assert calls and calls == sorted(calls)


class TestPreconditionedCG:
    def test_block_jacobi_reduces_iterations(self, medium_spd_system):
        A, b, x_star = medium_spd_system
        plain = conjugate_gradient(A, b)
        pcg = preconditioned_conjugate_gradient(
            A, b, preconditioner=BlockJacobiPreconditioner(A, page_size=128))
        assert pcg.converged
        assert pcg.iterations < plain.iterations
        np.testing.assert_allclose(pcg.x, x_star, atol=1e-6)

    def test_no_preconditioner_is_plain_cg(self, small_spd_system):
        A, b, _ = small_spd_system
        plain = conjugate_gradient(A, b)
        pcg = preconditioned_conjugate_gradient(A, b)
        assert pcg.iterations == plain.iterations
        np.testing.assert_array_equal(pcg.x, plain.x)
        assert plain.record.method == "CG (reference)"
        assert pcg.record.method == "PCG (reference)"

    def test_exact_preconditioner_converges_in_one_iteration(
            self, small_spd_system):
        """One block covering the whole matrix makes ``M = A``."""
        A, b, x_star = small_spd_system
        result = preconditioned_conjugate_gradient(
            A, b, preconditioner=BlockJacobiPreconditioner(
                A, page_size=A.shape[0]))
        assert result.converged and result.iterations == 1
        np.testing.assert_allclose(result.x, x_star, atol=1e-8)

    def test_zero_rhs(self, small_spd_system):
        A, _, _ = small_spd_system
        result = preconditioned_conjugate_gradient(
            A, np.zeros(A.shape[0]),
            preconditioner=BlockJacobiPreconditioner(A, page_size=64))
        assert result.converged and result.iterations == 0
        assert not result.x.any()

    def test_dimension_mismatch(self, small_spd_system):
        A, b, _ = small_spd_system
        with pytest.raises(ValueError):
            preconditioned_conjugate_gradient(
                A, b[:-1], preconditioner=BlockJacobiPreconditioner(
                    A, page_size=64))

    def test_max_iterations_respected(self, small_spd_system):
        A, b, _ = small_spd_system
        result = preconditioned_conjugate_gradient(
            A, b, preconditioner=BlockJacobiPreconditioner(A, page_size=64),
            tol=1e-14, max_iterations=2)
        assert result.iterations == 2
        assert not result.converged


class TestInputs:
    def test_sparse_operator_matches_csr(self, small_spd_system):
        A, b, _ = small_spd_system
        on_csr = conjugate_gradient(A, b)
        on_op = conjugate_gradient(SparseOperator.from_scipy(A), b)
        assert on_op.iterations == on_csr.iterations
        np.testing.assert_allclose(on_op.x, on_csr.x, rtol=1e-12, atol=1e-14)

    def test_dense_matrix_is_accepted(self):
        A = np.array([[4.0, 1.0], [1.0, 3.0]])
        x_star = np.array([1.0, -2.0])
        result = conjugate_gradient(A, A @ x_star)
        assert result.converged
        np.testing.assert_allclose(result.x, x_star, atol=1e-9)

    def test_initial_guess_is_not_modified(self, small_spd_system):
        A, b, _ = small_spd_system
        x0 = np.full(A.shape[0], 0.5)
        result = conjugate_gradient(A, b, x0=x0)
        assert result.converged
        assert np.all(x0 == 0.5)

    def test_final_residual_is_the_true_residual(self, random_sparse_system):
        A, b = random_sparse_system
        result = conjugate_gradient(A, b, tol=1e-10)
        assert result.converged
        true = np.linalg.norm(b - A @ result.x) / np.linalg.norm(b)
        assert result.record.final_residual == pytest.approx(true, rel=1e-12)
        assert result.record.final_residual <= 1e-9
