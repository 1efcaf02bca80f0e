"""Tests for the synthetic UFL-analogue matrix suite."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.matrices.properties import spd_check
from repro.matrices.suite import PAPER_MATRICES

EXPECTED_NAMES = {"af_shell8", "cfd2", "consph", "Dubcova3", "ecology2",
                  "parabolic_fem", "qa8fm", "thermal2", "thermomech"}


class TestSuiteContents:
    def test_all_nine_paper_matrices_present(self):
        assert set(PAPER_MATRICES) == EXPECTED_NAMES

    def test_metadata_records_original_sizes(self):
        for info in PAPER_MATRICES.values():
            assert info.original_n > info.n
            assert info.original_nnz > 0
            assert info.family

    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_every_analogue_is_spd(self, name):
        A = PAPER_MATRICES[name].build()
        report = spd_check(A)
        assert report.symmetric, f"{name} analogue is not symmetric"
        assert report.smallest_eigenvalue > 0, f"{name} analogue is not PD"

    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_analogue_size_matches_metadata(self, name):
        info = PAPER_MATRICES[name]
        A = PAPER_MATRICES[name].build()
        assert A.shape == (info.n, info.n)

    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_reasonable_sparsity(self, name):
        A = PAPER_MATRICES[name].build()
        assert 2.0 < A.nnz / A.shape[0] < 40.0

    def test_builders_are_deterministic(self):
        a = PAPER_MATRICES["cfd2"].build()
        b = PAPER_MATRICES["cfd2"].build()
        assert (a != b).nnz == 0

    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_build_is_a_reproducible_float64_csr(self, name):
        info = PAPER_MATRICES[name]
        A = info.build()
        assert info.name == name
        assert sp.isspmatrix_csr(A) and A.dtype == np.float64
        assert (A != info.build()).nnz == 0
