"""Property-based tests for the exact forward interpolation.

The paper's central numerical claim (Section 2.3): when the diagonal
block is non-singular, the interpolation recovers "the exact same data
as was lost ... up to rounding errors".  We verify it on random SPD
systems and random lost pages.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interpolation import (coupled_block_interpolation,
                                      exact_block_interpolation,
                                      least_squares_interpolation,
                                      scatter_coupled_solution)
from repro.matrices.blocked import PageBlockedMatrix
from repro.matrices.laplacian import laplacian_2d
from repro.matrices.random_spd import random_sparse_spd


def make_case(seed, n_grid=12, page_size=24):
    A = laplacian_2d(n_grid)
    blocked = PageBlockedMatrix(A, page_size=page_size)
    rng = np.random.default_rng(seed)
    p = rng.standard_normal(A.shape[0])
    return blocked, p, A @ p


class TestExactInterpolation:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_recovery_is_exact_for_any_page(self, seed):
        blocked, p, q = make_case(seed)
        page = seed % blocked.num_blocks
        damaged = p.copy()
        damaged[blocked.block_slice(page)] = np.nan   # contents truly gone
        damaged[blocked.block_slice(page)] = 0.0
        recovered = exact_block_interpolation(blocked, page, q, damaged)
        np.testing.assert_allclose(recovered, p[blocked.block_slice(page)],
                                   rtol=1e-8, atol=1e-10)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_random_spd_matrices(self, seed):
        A = random_sparse_spd(180, density=0.05, seed=seed)
        blocked = PageBlockedMatrix(A, page_size=45)
        rng = np.random.default_rng(seed + 1)
        p = rng.standard_normal(180)
        q = A @ p
        page = seed % blocked.num_blocks
        damaged = p.copy()
        damaged[blocked.block_slice(page)] = 0.0
        recovered = exact_block_interpolation(blocked, page, q, damaged)
        np.testing.assert_allclose(recovered, p[blocked.block_slice(page)],
                                   rtol=1e-6, atol=1e-8)

    def test_least_squares_matches_direct_solve(self):
        blocked, p, q = make_case(7)
        damaged = p.copy()
        damaged[blocked.block_slice(1)] = 0.0
        direct = exact_block_interpolation(blocked, 1, q, damaged)
        lsq = least_squares_interpolation(blocked, 1, q, damaged)
        np.testing.assert_allclose(lsq, direct, atol=1e-7)
        np.testing.assert_allclose(lsq, p[blocked.block_slice(1)], atol=1e-7)

    def test_coupled_interpolation_two_pages(self):
        blocked, p, q = make_case(3)
        pages = [0, 2]
        damaged = p.copy()
        for page in pages:
            damaged[blocked.block_slice(page)] = 0.0
        values = coupled_block_interpolation(blocked, pages, q, damaged)
        out = damaged.copy()
        scatter_coupled_solution(blocked, pages, values, out)
        np.testing.assert_allclose(out, p, rtol=1e-8, atol=1e-9)

    def test_coupled_interpolation_adjacent_pages(self):
        """Adjacent pages couple strongly in a stencil matrix; the 2x2 block
        system of Section 2.4 must still recover them exactly."""
        blocked, p, q = make_case(11)
        pages = [1, 2]
        damaged = p.copy()
        for page in pages:
            damaged[blocked.block_slice(page)] = 0.0
        values = coupled_block_interpolation(blocked, pages, q, damaged)
        out = damaged.copy()
        scatter_coupled_solution(blocked, pages, values, out)
        np.testing.assert_allclose(out, p, rtol=1e-8, atol=1e-9)

    def test_coupled_validation(self):
        blocked, p, q = make_case(0)
        with pytest.raises(ValueError):
            coupled_block_interpolation(blocked, [], q, p)
        with pytest.raises(ValueError):
            scatter_coupled_solution(blocked, [0], np.zeros(3), p.copy())

    def test_single_page_coupled_equals_exact(self):
        blocked, p, q = make_case(5)
        damaged = p.copy()
        damaged[blocked.block_slice(3)] = 0.0
        single = exact_block_interpolation(blocked, 3, q, damaged)
        coupled = coupled_block_interpolation(blocked, [3], q, damaged)
        np.testing.assert_allclose(single, coupled, atol=1e-10)
