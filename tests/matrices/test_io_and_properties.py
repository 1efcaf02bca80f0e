"""Tests for the matrix property checks and the random SPD generator."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.matrices.laplacian import laplacian_2d
from repro.matrices.properties import (is_spd, is_symmetric, smallest_eigenvalue,
                                       spd_check)
from repro.matrices.random_spd import random_sparse_spd


class TestProperties:
    def test_is_symmetric(self):
        assert is_symmetric(laplacian_2d(5))
        A = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
        assert not is_symmetric(A)

    def test_is_spd_true(self):
        assert is_spd(laplacian_2d(6))

    def test_is_spd_false_for_indefinite(self):
        A = sp.diags([1.0, -1.0, 2.0]).tocsr()
        assert not is_spd(A)

    def test_is_spd_false_for_asymmetric(self):
        A = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 2.0]]))
        assert not is_spd(A)

    def test_smallest_eigenvalue_small_matrix(self):
        A = sp.diags([3.0, 5.0, 0.5]).tocsr()
        assert smallest_eigenvalue(A) == pytest.approx(0.5)

    def test_smallest_eigenvalue_large_matrix_path(self):
        A = random_sparse_spd(700, density=0.005, seed=1)
        assert smallest_eigenvalue(A) > 0

    def test_spd_check_report(self):
        report = spd_check(laplacian_2d(5))
        assert report.symmetric and report.smallest_eigenvalue > 0
        assert report.n == 25
        assert report.nnz > 0

    def test_is_symmetric_within_tolerance(self):
        A = laplacian_2d(4).tolil()
        A[0, 1] += 1e-14
        assert is_symmetric(A.tocsr())
        A[0, 1] += 1e-6
        assert not is_symmetric(A.tocsr())

    def test_is_spd_false_for_singular(self):
        """A pure graph Laplacian has the constant vector in its kernel."""
        A = sp.diags([[-1.0] * 4, [1.0, 2.0, 2.0, 2.0, 1.0], [-1.0] * 4],
                     [-1, 0, 1]).tocsr()
        assert is_symmetric(A)
        assert not is_spd(A)

    def test_smallest_eigenvalue_large_matrix_is_accurate(self):
        A = sp.diags(np.linspace(0.5, 10.0, 700)).tocsr()
        assert smallest_eigenvalue(A) == pytest.approx(0.5, rel=1e-5)

    def test_nnz_per_row_of_the_5pt_stencil(self):
        k = 6
        assert laplacian_2d(k).nnz == 5 * k * k - 4 * k

    def test_spd_check_of_asymmetric_matrix(self):
        report = spd_check(sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 2.0]])))
        assert not report.symmetric
        assert np.isnan(report.smallest_eigenvalue)
        assert (report.n, report.nnz) == (2, 3)


class TestRandomSPD:
    def test_random_sparse_spd_is_spd(self):
        assert is_spd(random_sparse_spd(120, density=0.05, seed=2))

    def test_random_sparse_spd_validation(self):
        with pytest.raises(ValueError):
            random_sparse_spd(0)
        with pytest.raises(ValueError):
            random_sparse_spd(10, density=0.0)
        with pytest.raises(ValueError):
            random_sparse_spd(10, condition_boost=-1.0)

    def test_random_sparse_spd_is_reproducible_by_seed(self):
        a = random_sparse_spd(80, density=0.05, seed=4)
        assert (a != random_sparse_spd(80, density=0.05, seed=4)).nnz == 0
        assert (a != random_sparse_spd(80, density=0.05, seed=5)).nnz > 0

    def test_random_sparse_spd_is_diagonally_dominant(self):
        A = random_sparse_spd(150, density=0.03, seed=6)
        off = np.asarray(abs(A).sum(axis=1)).ravel() - A.diagonal()
        assert A.shape == (150, 150)
        assert np.all(A.diagonal() > off)
