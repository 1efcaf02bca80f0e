"""Tests for stencil and Laplacian generators."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.matrices.laplacian import (graph_laplacian, laplacian_1d,
                                      laplacian_2d, laplacian_3d)
from repro.matrices.properties import is_spd, is_symmetric
from repro.matrices.stencil import poisson_3d_27pt, stencil_rhs


def coo_poisson_3d_27pt(nx, ny, nz):
    """The 27-point stencil through COO triplets and ``tocsr``: the
    straightforward construction, kept as the reference the direct CSR
    builder must reproduce byte for byte."""
    idx = np.arange(nx * ny * nz).reshape(nz, ny, nx)
    n = nx * ny * nz
    rows, cols, vals = [], [], []
    offsets = [(dz, dy, dx)
               for dz in (-1, 0, 1) for dy in (-1, 0, 1) for dx in (-1, 0, 1)
               if not (dx == 0 and dy == 0 and dz == 0)]
    for dz, dy, dx in offsets:
        zs = slice(max(0, -dz), nz - max(0, dz))
        ys = slice(max(0, -dy), ny - max(0, dy))
        xs = slice(max(0, -dx), nx - max(0, dx))
        src = idx[zs, ys, xs].ravel()
        zs2 = slice(max(0, dz), nz - max(0, -dz))
        ys2 = slice(max(0, dy), ny - max(0, -dy))
        xs2 = slice(max(0, dx), nx - max(0, -dx))
        dst = idx[zs2, ys2, xs2].ravel()
        rows.append(src)
        cols.append(dst)
        vals.append(np.full(src.size, -1.0))
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(np.full(n, 26.0))
    A = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n))
    return A.tocsr()


@pytest.mark.parametrize("grid", [(1, 1, 1), (1, 1, 7), (7, 1, 1), (2, 3, 4),
                                  (3, 4, 5), (5, 5, 5), (16, 16, 16),
                                  (48, 48, 48)],
                         ids=lambda grid: "x".join(map(str, grid)))
def test_direct_csr_is_byte_identical_to_coo_reference(grid):
    A = poisson_3d_27pt(*grid)
    ref = coo_poisson_3d_27pt(*grid)
    assert A.shape == ref.shape
    assert A.indptr.dtype == ref.indptr.dtype
    assert A.indices.dtype == ref.indices.dtype
    assert A.data.dtype == ref.data.dtype == np.float64
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    assert np.array_equal(A.data.view(np.int64), ref.data.view(np.int64))
    assert A.has_sorted_indices and ref.has_sorted_indices
    assert A.has_canonical_format and ref.has_canonical_format


def test_build_peak_memory_is_close_to_the_matrix():
    """The build allocates each CSR array once; its transient stays
    within a quarter of the finished matrix's bytes."""
    poisson_3d_27pt(2)                  # warm any lazy imports
    tracemalloc.start()
    try:
        A = poisson_3d_27pt(24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    final = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    assert peak <= 1.25 * final, f"build peak {peak / final:.2f}x the matrix"


class TestPoisson27:
    def test_shape(self):
        A = poisson_3d_27pt(4)
        assert A.shape == (64, 64)

    def test_interior_row_has_27_entries(self):
        A = poisson_3d_27pt(5)
        # The centre point of the 5^3 grid couples to all 26 neighbours + itself.
        centre = 2 + 2 * 5 + 2 * 25
        assert A[centre].nnz == 27

    def test_diagonal_is_26(self):
        A = poisson_3d_27pt(4)
        assert np.all(A.diagonal() == 26.0)

    def test_symmetric_positive_definite(self):
        A = poisson_3d_27pt(5)
        assert is_spd(A)

    def test_rectangular_grid(self):
        A = poisson_3d_27pt(3, 4, 5)
        assert A.shape == (60, 60)
        assert is_symmetric(A)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            poisson_3d_27pt(0)

    def test_row_sums_nonnegative(self):
        """Diagonal dominance: 26 minus at most 26 neighbours."""
        A = poisson_3d_27pt(4)
        row_sums = np.asarray(A.sum(axis=1)).ravel()
        assert np.all(row_sums >= -1e-12)


class TestClassicStencils:
    def test_poisson_5pt_structure(self):
        A = laplacian_2d(10)
        assert A.shape == (100, 100)
        assert np.all(A.diagonal() == 4.0)
        assert is_spd(A)

    def test_poisson_7pt_structure(self):
        A = laplacian_3d(5)
        assert A.shape == (125, 125)
        assert np.all(A.diagonal() == 6.0)
        assert is_spd(A)

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            laplacian_2d(0)
        with pytest.raises(ValueError):
            laplacian_3d(0)

    def test_rhs_ones_solution(self):
        A = laplacian_2d(8)
        b = stencil_rhs(A, kind="ones")
        x = sp.linalg.spsolve(A.tocsc(), b)
        assert np.allclose(x, 1.0, atol=1e-8)

    def test_rhs_random_is_reproducible(self):
        A = laplacian_2d(8)
        assert np.allclose(stencil_rhs(A, kind="random", seed=3),
                           stencil_rhs(A, kind="random", seed=3))

    def test_rhs_unknown_kind(self):
        with pytest.raises(ValueError):
            stencil_rhs(laplacian_2d(4), kind="nope")


class TestLaplacians:
    def test_laplacian_1d(self):
        L = laplacian_1d(5)
        assert L.shape == (5, 5)
        assert np.all(L.diagonal() == 2.0)

    def test_laplacian_1d_shift(self):
        L = laplacian_1d(5, shift=1.0)
        assert np.all(L.diagonal() == 3.0)

    def test_laplacian_2d_anisotropy(self):
        iso = laplacian_2d(6, 6)
        aniso = laplacian_2d(6, 6, anisotropy=4.0)
        assert aniso.diagonal().max() > iso.diagonal().max()
        assert is_symmetric(aniso)

    def test_laplacian_3d_spd_with_shift(self):
        assert is_spd(laplacian_3d(4, shift=0.1))

    def test_laplacian_invalid(self):
        with pytest.raises(ValueError):
            laplacian_1d(0)

    def test_graph_laplacian_zero_row_sums(self):
        rng = np.random.default_rng(0)
        W = sp.random(30, 30, density=0.2, random_state=rng)
        L = graph_laplacian(W)
        assert np.allclose(np.asarray(L.sum(axis=1)).ravel(), 0.0, atol=1e-10)

    def test_graph_laplacian_shift_makes_spd(self):
        rng = np.random.default_rng(1)
        W = abs(sp.random(40, 40, density=0.2, random_state=rng))
        assert is_spd(graph_laplacian(W, shift=0.5))

    def test_graph_laplacian_requires_square(self):
        with pytest.raises(ValueError):
            graph_laplacian(sp.random(3, 4, density=0.5))
