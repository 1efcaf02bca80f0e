"""Tests for the identity and block-Jacobi preconditioners."""

import numpy as np
import pytest

from repro.matrices.laplacian import laplacian_2d
from repro.matrices.sparse import SparseOperator
from repro.precond.block_jacobi import BlockJacobiPreconditioner
from repro.precond.identity import IdentityPreconditioner


@pytest.fixture(scope="module")
def system():
    A = laplacian_2d(12)                # n = 144
    rng = np.random.default_rng(0)
    v = rng.standard_normal(144)
    return A, v


class TestIdentity:
    def test_apply_returns_copy(self, system):
        _, v = system
        M = IdentityPreconditioner()
        z = M.apply(v)
        np.testing.assert_array_equal(z, v)
        z[0] = 99
        assert v[0] != 99

    def test_apply_returns_float64(self):
        z = IdentityPreconditioner().apply([1, 2, 3])
        assert z.dtype == np.float64
        np.testing.assert_array_equal(z, [1.0, 2.0, 3.0])


class TestBlockJacobi:
    def test_apply_solves_each_block(self, system):
        A, v = system
        M = BlockJacobiPreconditioner(A, page_size=36)
        z = M.apply(v)
        for block in range(M.blocked.num_blocks):
            sl = M.blocked.block_slice(block)
            np.testing.assert_allclose(M.blocked.diag_block(block) @ z[sl],
                                       v[sl], atol=1e-9)

    def test_factors_are_precomputed(self, system):
        A, _ = system
        M = BlockJacobiPreconditioner(A, page_size=36)
        assert all(M.blocked.has_cached_factor(b) for b in range(M.blocked.num_blocks))

    def test_wrong_length_rejected(self, system):
        A, v = system
        M = BlockJacobiPreconditioner(A, page_size=36)
        with pytest.raises(ValueError):
            M.apply(v[:-1])

    def test_single_row_blocks_are_point_jacobi(self, system):
        A, v = system
        M = BlockJacobiPreconditioner(A, page_size=1)
        np.testing.assert_allclose(M.apply(v), v / A.diagonal(), rtol=1e-14)

    def test_one_block_is_an_exact_solve(self, system):
        A, v = system
        M = BlockJacobiPreconditioner(A, page_size=A.shape[0])
        np.testing.assert_allclose(A @ M.apply(v), v, atol=1e-9)

    @pytest.mark.parametrize("page_size", [5, 50, 89])
    def test_short_last_block_is_solved(self, system, page_size):
        A, v = system
        M = BlockJacobiPreconditioner(A, page_size=page_size)
        z = M.apply(v)
        last = M.blocked.block_slice(M.blocked.num_blocks - 1)
        assert last.stop == A.shape[0]
        assert last.stop - last.start < page_size
        np.testing.assert_allclose(
            M.blocked.diag_block(M.blocked.num_blocks - 1) @ z[last], v[last],
            atol=1e-9)

    def test_operator_is_symmetric_positive_definite(self, system):
        """PCG needs ``M^-1`` SPD: a block diagonal of SPD blocks is."""
        A, v = system
        M = BlockJacobiPreconditioner(A, page_size=36)
        u = np.random.default_rng(1).standard_normal(v.shape[0])
        assert u @ M.apply(v) == pytest.approx(v @ M.apply(u), rel=1e-12)
        assert v @ M.apply(v) > 0
        assert u @ M.apply(u) > 0

    def test_apply_is_linear(self, system):
        A, v = system
        M = BlockJacobiPreconditioner(A, page_size=36)
        u = np.random.default_rng(2).standard_normal(v.shape[0])
        np.testing.assert_allclose(M.apply(2.0 * u - 0.5 * v),
                                   2.0 * M.apply(u) - 0.5 * M.apply(v),
                                   atol=1e-12)

    def test_apply_leaves_its_input_alone(self, system):
        A, v = system
        before = v.copy()
        z = BlockJacobiPreconditioner(A, page_size=36).apply(v)
        np.testing.assert_array_equal(v, before)
        assert not np.shares_memory(z, v)

    def test_sparse_operator_backend_agrees(self, system):
        A, v = system
        op = SparseOperator.from_scipy(A)
        np.testing.assert_allclose(
            BlockJacobiPreconditioner(op, page_size=36).apply(v),
            BlockJacobiPreconditioner(A, page_size=36).apply(v), rtol=1e-14)
