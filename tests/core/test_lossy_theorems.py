"""Property-based validation of the Lossy interpolation theorems (Section 4.3).

* Theorem 2 (Agullo et al.): for SPD A, the block-Jacobi interpolation
  does not increase the A-norm of the error.
* Theorem 3 (this paper): the interpolation *minimises* the A-norm of
  the error over all possible values of the lost block.
* Fixed-point property: if the iterate already equals the solution, the
  interpolation leaves it unchanged.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lossy import lossy_interpolate
from repro.matrices.blocked import PageBlockedMatrix
from repro.matrices.laplacian import laplacian_2d
from repro.matrices.random_spd import random_sparse_spd


def a_norm(A, v):
    """``sqrt(v^T A v)`` — the energy norm of Theorems 2 and 3."""
    # Guard against tiny negative values from round-off on SPD matrices.
    return float(np.sqrt(max(float(v @ (A @ v)), 0.0)))


def interpolation_error_norm(A, blocked, b, x_true, x_damaged, pages):
    """``(||x* - x||_A, ||x* - x_I||_A)``: the A-norm of the error of the
    damaged iterate ``x`` and of its interpolation ``x_I``."""
    x_interp = lossy_interpolate(blocked, b, x_damaged, pages)
    return a_norm(A, x_true - x_damaged), a_norm(A, x_true - x_interp)


def make_problem(seed, n_grid=10, page_size=20):
    A = laplacian_2d(n_grid)
    blocked = PageBlockedMatrix(A, page_size=page_size)
    rng = np.random.default_rng(seed)
    x_star = rng.standard_normal(A.shape[0])
    b = A @ x_star
    x_iterate = x_star + 0.3 * rng.standard_normal(A.shape[0])
    return A, blocked, b, x_star, x_iterate


class TestTheorem2Contraction:
    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_interpolation_does_not_increase_a_norm(self, seed):
        A, blocked, b, x_star, x_iter = make_problem(seed)
        page = seed % blocked.num_blocks
        damaged = x_iter.copy()
        damaged[blocked.block_slice(page)] = 0.0
        before, after = interpolation_error_norm(A, blocked, b, x_star,
                                                 x_iter, [page])
        # "before" is the error of the undamaged iterate per Theorem 2.
        assert after <= before + 1e-9 * max(before, 1.0)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=15, deadline=None)
    def test_holds_on_random_spd(self, seed):
        A = random_sparse_spd(160, density=0.06, seed=seed)
        blocked = PageBlockedMatrix(A, page_size=40)
        rng = np.random.default_rng(seed + 9)
        x_star = rng.standard_normal(160)
        b = A @ x_star
        x_iter = x_star + rng.standard_normal(160)
        page = seed % blocked.num_blocks
        before, after = interpolation_error_norm(A, blocked, b, x_star,
                                                 x_iter, [page])
        assert after <= before + 1e-9 * max(before, 1.0)


class TestTheorem3Optimality:
    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=25, deadline=None)
    def test_interpolation_minimises_a_norm_over_lost_block(self, seed):
        """No other replacement of the lost block beats the interpolation."""
        A, blocked, b, x_star, x_iter = make_problem(seed)
        page = seed % blocked.num_blocks
        sl = blocked.block_slice(page)
        x_interp = lossy_interpolate(blocked, b, x_iter, [page])
        optimal = a_norm(A, x_star - x_interp)
        rng = np.random.default_rng(seed + 123)
        for _ in range(5):
            candidate = x_interp.copy()
            candidate[sl] = x_interp[sl] + rng.standard_normal(sl.stop - sl.start)
            assert a_norm(A, x_star - candidate) >= optimal - 1e-9

    def test_gradient_condition_at_interpolant(self):
        """At the optimum the residual restricted to the lost block is zero."""
        A, blocked, b, x_star, x_iter = make_problem(7)
        page = 1
        x_interp = lossy_interpolate(blocked, b, x_iter, [page])
        residual = b - A @ x_interp
        np.testing.assert_allclose(residual[blocked.block_slice(page)], 0.0,
                                   atol=1e-9)


class TestFixedPointAndEdgeCases:
    def test_fixed_point_property(self):
        A, blocked, b, x_star, _ = make_problem(3)
        interpolated = lossy_interpolate(blocked, b, x_star, [2])
        np.testing.assert_allclose(interpolated, x_star, atol=1e-9)

    def test_no_pages_returns_copy(self):
        A, blocked, b, _, x_iter = make_problem(4)
        out = lossy_interpolate(blocked, b, x_iter, [])
        assert out is not x_iter
        np.testing.assert_array_equal(out, x_iter)

    def test_multiple_lost_pages(self):
        A, blocked, b, x_star, x_iter = make_problem(5)
        pages = [0, 3]
        before = a_norm(A, x_star - x_iter)
        out = lossy_interpolate(blocked, b, x_iter, pages)
        assert a_norm(A, x_star - out) <= before + 1e-9

    def test_lost_contents_do_not_matter(self):
        """The interpolation ignores whatever garbage the lost page holds."""
        A, blocked, b, _, x_iter = make_problem(6)
        damaged_zero = x_iter.copy()
        damaged_garbage = x_iter.copy()
        sl = blocked.block_slice(1)
        damaged_zero[sl] = 0.0
        damaged_garbage[sl] = 1e30
        out_zero = lossy_interpolate(blocked, b, damaged_zero, [1])
        out_garbage = lossy_interpolate(blocked, b, damaged_garbage, [1])
        np.testing.assert_allclose(out_zero, out_garbage, atol=1e-9)

    def test_a_norm_nonnegative(self):
        A = laplacian_2d(5)
        assert a_norm(A, np.zeros(25)) == 0.0
        assert a_norm(A, np.ones(25)) > 0.0
