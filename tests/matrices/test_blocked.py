"""Tests for the page-blocked matrix view."""

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matrices.blocked import PageBlockedMatrix
from repro.matrices.laplacian import laplacian_2d
from repro.matrices.sparse import SparseOperator


@pytest.fixture(scope="module")
def blocked():
    A = laplacian_2d(16)            # n = 256
    return PageBlockedMatrix(A, page_size=64)


class TestStructure:
    def test_block_count(self, blocked):
        assert blocked.num_blocks == 4

    def test_uneven_last_block(self):
        A = laplacian_2d(9)          # n = 81
        b = PageBlockedMatrix(A, page_size=32)
        assert b.num_blocks == 3
        assert b.block_size(2) == 81 - 64

    def test_requires_square(self):
        import scipy.sparse as sp
        with pytest.raises(ValueError):
            PageBlockedMatrix(sp.random(4, 5, density=0.5))

    def test_invalid_page_size(self):
        with pytest.raises(ValueError):
            PageBlockedMatrix(laplacian_2d(4), page_size=0)

    def test_diag_block_matches_dense(self, blocked):
        dense = blocked.A.toarray()
        np.testing.assert_allclose(blocked.diag_block(2),
                                   dense[128:192, 128:192])

    def test_nnz_of_block_sums_to_total(self, blocked):
        total = sum(blocked.nnz_of_block(i) for i in range(blocked.num_blocks))
        assert total == blocked.A.nnz


class TestProducts:
    def test_block_row_product(self, blocked):
        v = np.random.default_rng(0).standard_normal(256)
        full = blocked.A @ v
        np.testing.assert_allclose(blocked.block_row_product(1, v),
                                   full[64:128])


class TestSolves:
    def test_solve_diag_roundtrip(self, blocked):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(blocked.block_size(0))
        rhs = blocked.diag_block(0) @ y
        np.testing.assert_allclose(blocked.solve_diag(0, rhs), y, atol=1e-9)

    def test_solve_diag_wrong_size(self, blocked):
        with pytest.raises(ValueError):
            blocked.solve_diag(0, np.zeros(3))

    def test_factor_caching(self, blocked):
        assert not blocked.has_cached_factor(3)
        blocked.diag_factor(3)
        assert blocked.has_cached_factor(3)

    def test_precompute_factors(self):
        b = PageBlockedMatrix(laplacian_2d(8), page_size=16)
        b.precompute_factors()
        assert all(b.has_cached_factor(i) for i in range(b.num_blocks))

    def test_coupled_diag_solve(self, blocked):
        rng = np.random.default_rng(3)
        blocks = [0, 2]
        indices = np.concatenate([blocked.page_size * np.array([0, 2])[:, None]
                                  + np.arange(64)[None, :]]).ravel()
        sub = blocked.A[indices][:, indices].toarray()
        y = rng.standard_normal(len(indices))
        rhs = sub @ y
        np.testing.assert_allclose(blocked.coupled_diag_solve(blocks, rhs), y,
                                   atol=1e-9)

    def test_coupled_solve_validation(self, blocked):
        with pytest.raises(ValueError):
            blocked.coupled_diag_solve([], np.zeros(0))
        with pytest.raises(ValueError):
            blocked.coupled_diag_solve([0], np.zeros(3))

    @given(n=st.integers(1, 90), page_size=st.integers(1, 50),
           seed=st.integers(0, 2 ** 32 - 1), sparse=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_solve_diag_is_lu_solve(self, n, page_size, seed, sparse):
        """The direct ``getrs`` call against ``lu_solve`` on the same
        factors, bit for bit, on both backends."""
        rng = np.random.default_rng(seed)
        dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.4)
        dense += np.diag(np.abs(dense).sum(axis=1) + rng.uniform(0.1, 2.0, n))
        A = sp.csr_matrix(dense)
        if sparse:
            A = SparseOperator.from_scipy(A)
        blocked = PageBlockedMatrix(A, page_size=page_size)
        for block in range(blocked.num_blocks):
            rhs = rng.standard_normal(blocked.block_size(block)) * 1e3
            assert blocked.solve_diag(block, rhs).tobytes() == \
                la.lu_solve(blocked.diag_factor(block), rhs).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_solve_diag_refuses_a_non_finite_rhs_as_lu_solve_does(self,
                                                                   blocked,
                                                                   bad):
        rhs = np.ones(blocked.block_size(1))
        rhs[5] = bad
        with pytest.raises(ValueError) as ours:
            blocked.solve_diag(1, rhs)
        with pytest.raises(ValueError) as theirs:
            la.lu_solve(blocked.diag_factor(1), rhs)
        assert str(ours.value) == str(theirs.value)


class TestDiagFactor:
    """``diag_factor`` calls ``getrf`` itself: what ``lu_factor`` returns
    and raises, bit for bit."""

    @given(n=st.integers(1, 90), page_size=st.integers(1, 50),
           seed=st.integers(0, 2 ** 32 - 1), sparse=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_diag_factor_is_lu_factor(self, n, page_size, seed, sparse):
        rng = np.random.default_rng(seed)
        dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.4)
        dense += np.diag(rng.uniform(-2.0, 2.0, n))
        A = sp.csr_matrix(dense)
        if sparse:
            A = SparseOperator.from_scipy(A)
        blocked = PageBlockedMatrix(A, page_size=page_size)
        for block in range(blocked.num_blocks):
            kept = blocked.diag_block(block).copy()
            lu, piv = blocked.diag_factor(block)
            want_lu, want_piv = la.lu_factor(kept)
            assert lu.tobytes() == want_lu.tobytes()
            assert lu.flags.f_contiguous == want_lu.flags.f_contiguous
            assert (piv.dtype, piv.tobytes()) == (want_piv.dtype,
                                                  want_piv.tobytes())
            # the cached block is factored in a copy, never in place
            assert blocked.diag_block(block).tobytes() == kept.tobytes()
            assert blocked.diag_factor(block)[0] is lu

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_block_raises_what_lu_factor_raises(self, bad):
        dense = laplacian_2d(4).toarray()
        dense[1, 2] = bad
        blocked = PageBlockedMatrix(sp.csr_matrix(dense), page_size=8)
        with pytest.raises(ValueError) as ours:
            blocked.diag_factor(0)
        with pytest.raises(ValueError) as theirs:
            la.lu_factor(blocked.diag_block(0))
        assert str(ours.value) == str(theirs.value)
        assert not blocked.has_cached_factor(0)

    def test_a_singular_block_warns_what_lu_factor_warns(self):
        dense = laplacian_2d(4).toarray()
        dense[:, 3] = 0.0  # column 3 of block 0 is zero: U[3, 3] is 0
        dense[3, :] = 0.0
        blocked = PageBlockedMatrix(
            SparseOperator.from_scipy(sp.csr_matrix(dense)), page_size=8)
        with pytest.warns(la.LinAlgWarning) as ours:
            lu, _ = blocked.diag_factor(0)
        with pytest.warns(la.LinAlgWarning) as theirs:
            want, _ = la.lu_factor(blocked.diag_block(0))
        assert [str(w.message) for w in ours] == \
            [str(w.message) for w in theirs]
        assert lu.tobytes() == want.tobytes()
