"""Kernel-engine tests: the reproducible page-ordered reductions that
make single-rank and N-rank solves bit-identical."""

from __future__ import annotations

import numpy as np
import pytest

from repro.matrices.blocked import PageBlockedMatrix
from repro.matrices.stencil import poisson_2d_5pt
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
        assert reduce_partials(parts, {0, 2}) == 3.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            page_partials(np.zeros(4), np.zeros(5), 2)


class TestLocalKernelEngine:
    @pytest.fixture(scope="class")
    def setup(self):
        A = poisson_2d_5pt(20)          # n = 400
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
