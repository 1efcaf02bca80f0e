"""Kernel-engine tests: the reproducible page-ordered reductions that
make single-rank and N-rank solves bit-identical."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matrices.blocked import PageBlockedMatrix
from repro.matrices.laplacian import laplacian_2d
from repro.matrices.sparse import SparseOperator
from repro.runtime.kernels import (LocalKernelEngine, make_kernel_engine,
                                   page_partials, paged_dot,
                                   reduce_partials)
from repro.runtime.runtime import resolve_runtime_spec


@pytest.fixture(scope="module")
def vectors():
    rng = np.random.default_rng(5)
    n = 1000                            # ragged final page (1000 = 7*128+104)
    return rng.standard_normal(n), rng.standard_normal(n)


class TestPagedDot:
    def test_matches_page_loop_reference(self, vectors):
        u, v = vectors
        psize = 128
        parts = [float(np.add.reduce(u[s:s + psize] * v[s:s + psize]))
                 for s in range(0, u.size, psize)]
        assert paged_dot(u, v, psize) == float(np.add.reduce(np.array(parts)))
        assert paged_dot(u, v, psize) == pytest.approx(float(u @ v),
                                                       rel=1e-12)

    def test_skip_is_exact_not_cancellation(self, vectors):
        u, v = vectors
        psize = 128
        parts = page_partials(u, v, psize)
        kept = parts.copy()
        kept[[1, 3]] = 0.0
        assert paged_dot(u, v, psize, {1, 3}) == \
            float(np.add.reduce(kept))
        # Out-of-range skip pages are ignored, matching the solver's
        # tolerance for stale page ids.
        assert paged_dot(u, v, psize, {999}) == paged_dot(u, v, psize)

    def test_strip_partials_equal_global_partials(self, vectors):
        """The bit-identity guarantee: partials computed per page-aligned
        strip are the same bits as partials of the whole array."""
        u, v = vectors
        psize = 128
        whole = page_partials(u, v, psize)
        bounds = [0, 256, 512, 768, 1000]
        stitched = np.concatenate([page_partials(u[a:b], v[a:b], psize)
                                   for a, b in zip(bounds, bounds[1:], strict=False)])
        assert np.array_equal(whole, stitched)

    def test_reduce_partials_order_fixed(self):
        parts = np.array([1e16, 1.0, -1e16, 2.0])
        assert reduce_partials(parts) == float(np.add.reduce(parts))
        assert reduce_partials(parts.copy(), {0, 2}) == 3.0

    def test_caller_buffers_are_written_and_skips_zeroed_in_place(self, vectors):
        u, v = vectors
        psize = 128
        prod, parts = np.empty(u.size), np.empty(8)
        assert page_partials(u, v, psize, prod, parts) is parts
        assert prod.tobytes() == (u * v).tobytes()
        assert parts.tobytes() == page_partials(u, v, psize).tobytes()
        assert reduce_partials(parts, {2, 99}) == paged_dot(u, v, psize, {2})
        assert parts[2] == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            page_partials(np.zeros(4), np.zeros(5), 2)


class TestLocalKernelEngine:
    @pytest.fixture(scope="class")
    def setup(self):
        A = laplacian_2d(20)            # n = 400
        blocked = PageBlockedMatrix(A, page_size=64)
        rng = np.random.default_rng(9)
        return blocked, rng.standard_normal(400)

    def test_spmv_and_residual(self, setup):
        blocked, d = setup
        engine = LocalKernelEngine(blocked.A, blocked.n, blocked.page_size)
        out = np.zeros(blocked.n)
        engine.spmv(d, out)
        assert np.array_equal(out, blocked.A @ d)
        b = np.ones(blocked.n)
        res = np.zeros(blocked.n)
        engine.residual(d, b, res)
        assert np.array_equal(res, b - blocked.A @ d)

    def test_update_direction_and_axpy(self, setup):
        blocked, d = setup
        engine = LocalKernelEngine(blocked.A, blocked.n, blocked.page_size)
        z = np.arange(blocked.n, dtype=float)
        d_cur = np.zeros(blocked.n)
        engine.update_direction(d_cur, z, 0.5, d)
        assert np.array_equal(d_cur, z + 0.5 * d)
        y = np.ones(blocked.n)
        engine.axpy(y, 2.0, z, skip_pages={1})
        sl = slice(64, 128)
        assert np.array_equal(y[sl], np.ones(64))        # skipped page
        assert np.array_equal(y[200:], 1.0 + 2.0 * z[200:])

    def test_run_on_owner_is_inline(self, setup):
        blocked, _ = setup
        engine = LocalKernelEngine(blocked.A, blocked.n, blocked.page_size)
        assert engine.run_on_owner(3, lambda: "done") == "done"
        assert engine.comm_stats() is None

    def test_factory_validation(self, setup):
        blocked, _ = setup
        with pytest.raises(ValueError, match="ranks"):
            make_kernel_engine(blocked, resolve_runtime_spec(ranks=0))
        engine = make_kernel_engine(blocked, resolve_runtime_spec(ranks=1))
        assert isinstance(engine, LocalKernelEngine)


def _spread(seed: int, n: int) -> np.ndarray:
    """Values over 16 decades, so a reduction's order shows in its bits."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)


def _allocating_paged_dot(u, v, page_size, skip_pages) -> float:
    """The allocating page-ordered dot the buffered primitives replaced,
    kept as their oracle: full pages multiplied as ``(pages, page_size)``
    slices, the ragged page reduced alone, out-of-range skips dropped,
    the partials combined by one ``np.add.reduce``."""
    n = u.shape[0]
    full = (n // page_size) * page_size
    parts = np.add.reduce(u[:full].reshape(-1, page_size)
                          * v[:full].reshape(-1, page_size), axis=1)
    if full < n:
        parts = np.concatenate([parts, [np.add.reduce(u[full:] * v[full:])]])
    skip = [p for p in skip_pages if 0 <= p < parts.shape[0]]
    if skip:
        parts = parts.copy()
        parts[skip] = 0.0
    return float(np.add.reduce(parts))


class TestEngineScratchDifferential:
    """The engine's allocation-free kernels against their allocating
    spellings, bit for bit (``float.hex`` / ``tobytes``)."""

    @given(n=st.integers(0, 1500), page_size=st.integers(1, 160),
           seed=st.integers(0, 2 ** 32 - 1),
           skips=st.lists(st.lists(st.integers(-12, 40), max_size=6),
                          min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_dot_is_the_allocating_paged_dot(self, n, page_size, seed, skips):
        """Ragged last pages, empty skip sets, out-of-range and duplicate
        pages; one engine for every call, so no call sees the last one's
        scratch (nor the skips zeroed in it)."""
        engine = LocalKernelEngine(None, n, page_size)
        u, v = _spread(seed, n), _spread(seed + 1, n)
        for skip in skips + [[]]:
            for a, b, pages in ((u, v, skip), (u, u, set(skip))):
                expected = _allocating_paged_dot(a, b, page_size, pages).hex()
                assert engine.dot(a, b, pages).hex() == expected
                assert paged_dot(a, b, page_size, pages).hex() == expected

    @given(nx=st.integers(1, 12), ny=st.integers(1, 12),
           page_size=st.integers(1, 40), beta=st.floats(-1e3, 1e3),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_vector_kernels_are_their_allocating_spellings(
            self, nx, ny, page_size, beta, seed):
        A = SparseOperator.from_scipy(laplacian_2d(nx, ny, shift=0.5))
        n = A.n
        engine = LocalKernelEngine(A, n, page_size)
        assert engine._gather is not None
        d, z, b = _spread(seed, n), _spread(seed + 1, n), _spread(seed + 2, n)
        out = np.empty(n)
        engine.spmv(d, out)
        assert out.tobytes() == (A @ d).tobytes()
        engine.residual(d, b, out)
        assert out.tobytes() == (b - A @ d).tobytes()
        engine.update_direction(out, z, beta, d)
        assert out.tobytes() == (z + beta * d).tobytes()
        y, expected = b.copy(), b.copy()
        engine.axpy(y, beta, z)
        expected += beta * z
        assert y.tobytes() == expected.tobytes()

    def test_an_empty_row_takes_the_allocating_product(self):
        rows, cols = [0, 0, 2, 2], [0, 2, 0, 2]
        A = SparseOperator.from_scipy(sp.csr_matrix(
            ([2.0, -1.0, -1.0, 3.0], (rows, cols)), shape=(3, 3)))
        assert A.has_empty_rows()
        engine = LocalKernelEngine(A, 3, 2)
        assert engine._gather is None
        d, out = np.array([1.5, -2.0, 0.25]), np.empty(3)
        engine.spmv(d, out)
        assert out.tobytes() == (A @ d).tobytes()
        engine.residual(d, np.ones(3), out)
        assert out.tobytes() == (np.ones(3) - A @ d).tobytes()
