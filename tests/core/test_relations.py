"""Tests for the Table 1 block redundancy relations."""

import numpy as np
import pytest

from repro.core.relations import (HessenbergRelation, LinearCombinationRelation,
                                  MatVecRelation, ResidualRelation)
from repro.matrices.blocked import PageBlockedMatrix
from repro.matrices.laplacian import laplacian_2d


@pytest.fixture(scope="module")
def system():
    A = laplacian_2d(16)                 # n = 256
    blocked = PageBlockedMatrix(A, page_size=64)
    rng = np.random.default_rng(42)
    x = rng.standard_normal(256)
    b = A @ rng.standard_normal(256)
    return A, blocked, b, x


class TestMatVecRelation:
    def test_recover_lhs_page(self, system):
        A, blocked, _, p = system
        q = A @ p
        rel = MatVecRelation(blocked)
        for page in range(blocked.num_blocks):
            sl = blocked.block_slice(page)
            np.testing.assert_allclose(rel.recover_lhs_page(page, p), q[sl],
                                       atol=1e-12)

    def test_recover_rhs_page_is_exact(self, system):
        A, blocked, _, p = system
        q = A @ p
        rel = MatVecRelation(blocked)
        damaged = p.copy()
        damaged[blocked.block_slice(2)] = 0.0     # page contents are gone
        recovered = rel.recover_rhs_page(2, q, damaged)
        np.testing.assert_allclose(recovered, p[blocked.block_slice(2)],
                                   atol=1e-9)


class TestLinearCombinationRelation:
    def test_both_recovery_directions(self):
        rng = np.random.default_rng(1)
        v, w = rng.standard_normal(64), rng.standard_normal(64)
        rel = LinearCombinationRelation(alpha=0.7, beta=-1.3)
        u = 0.7 * v - 1.3 * w
        np.testing.assert_allclose(rel.recover_lhs_page(v, w), u, atol=1e-13)
        np.testing.assert_allclose(rel.recover_w_page(u, v), w, atol=1e-12)

    def test_zero_coefficients_rejected(self):
        rel = LinearCombinationRelation(alpha=0.0, beta=0.0)
        with pytest.raises(ZeroDivisionError):
            rel.recover_w_page(np.zeros(4), np.zeros(4))


class TestResidualRelation:
    def test_recover_residual_page(self, system):
        A, blocked, b, x = system
        g = b - A @ x
        rel = ResidualRelation(blocked, b)
        for page in range(blocked.num_blocks):
            sl = blocked.block_slice(page)
            np.testing.assert_allclose(rel.recover_residual_page(page, x),
                                       g[sl], atol=1e-12)

    def test_recover_iterate_page_is_exact(self, system):
        A, blocked, b, x = system
        g = b - A @ x
        rel = ResidualRelation(blocked, b)
        damaged = x.copy()
        damaged[blocked.block_slice(1)] = 0.0
        recovered = rel.recover_iterate_page(1, g, damaged)
        np.testing.assert_allclose(recovered, x[blocked.block_slice(1)],
                                   atol=1e-9)

    def test_recover_multiple_iterate_pages_coupled(self, system):
        A, blocked, b, x = system
        g = b - A @ x
        rel = ResidualRelation(blocked, b)
        damaged = x.copy()
        for page in (0, 3):
            damaged[blocked.block_slice(page)] = 0.0
        values = rel.recover_iterate_pages_coupled([0, 3], g, damaged)
        expected = np.concatenate([x[blocked.block_slice(0)],
                                   x[blocked.block_slice(3)]])
        np.testing.assert_allclose(values, expected, atol=1e-9)

    def test_coupled_requires_pages(self, system):
        _, blocked, b, x = system
        rel = ResidualRelation(blocked, b)
        with pytest.raises(ValueError):
            rel.recover_iterate_pages_coupled([], x, x)


class TestHessenbergRelation:
    def test_recover_arnoldi_vector(self, system):
        A, blocked, b, _ = system
        n = A.shape[0]
        m = 6
        V = np.zeros((n, m + 1))
        H = np.zeros((m + 1, m))
        V[:, 0] = b / np.linalg.norm(b)
        for k in range(m):
            w = A @ V[:, k]
            for i in range(k + 1):
                H[i, k] = w @ V[:, i]
                w -= H[i, k] * V[:, i]
            H[k + 1, k] = np.linalg.norm(w)
            V[:, k + 1] = w / H[k + 1, k]
        rel = HessenbergRelation(blocked)
        for l in range(1, m + 1):
            recovered = rel.recover_basis_vector(l, V, H)
            np.testing.assert_allclose(recovered, V[:, l], atol=1e-9)

    def test_v0_not_recoverable(self, system):
        _, blocked, _, _ = system
        rel = HessenbergRelation(blocked)
        with pytest.raises(ValueError):
            rel.recover_basis_vector(0, np.zeros((4, 2)), np.zeros((2, 1)))

    def test_breakdown_detected(self, system):
        _, blocked, _, _ = system
        rel = HessenbergRelation(blocked)
        H = np.zeros((3, 2))
        with pytest.raises(ZeroDivisionError):
            rel.recover_basis_vector(1, np.zeros((blocked.n, 3)), H)

    def test_requires_operator(self):
        rel = HessenbergRelation(None)
        H = np.ones((2, 1))
        with pytest.raises(ValueError):
            rel.recover_basis_vector(1, np.zeros((4, 2)), H)
