"""SparseOperator (SciPy-free CSR) parity and fast-path tests."""

import copy
import pickle

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matrices.blocked import PageBlockedMatrix
from repro.matrices.laplacian import laplacian_2d
from repro.matrices.sparse import SparseOperator
from repro.matrices.stencil import stencil_rhs

PARITY = 1e-12


@pytest.fixture(scope="module")
def poisson_pair():
    """(scipy CSR, SparseOperator, dense) of the same 2-D Poisson matrix."""
    A = laplacian_2d(13, 9)
    return A, SparseOperator.from_scipy(A), A.toarray()


@pytest.fixture(scope="module")
def vector(poisson_pair):
    n = poisson_pair[0].shape[0]
    return np.random.default_rng(5).standard_normal(n)


class TestConstruction:
    def test_from_scipy_roundtrip(self, poisson_pair):
        _, op, dense = poisson_pair
        assert np.array_equal(op.toarray(), dense)
        assert op.nnz == np.count_nonzero(dense)

    def test_from_scipy_leaves_an_unsorted_input_alone(self):
        """``tocsr`` of a CSR input is the input itself: the conversion
        sorts a copy, never the caller's arrays."""
        A = sp.csr_matrix((np.array([2.0, 3.0]), np.array([1, 0]),
                           np.array([0, 2, 2])), shape=(2, 2))
        assert not A.has_sorted_indices
        op = SparseOperator.from_scipy(A)
        assert A.indices.tolist() == [1, 0]
        assert not A.has_sorted_indices
        assert op.indices.tolist() == [0, 1]
        x = np.array([5.0, 7.0])
        assert np.array_equal(op.matvec(x), A @ x)

    def test_from_scipy_sums_the_duplicates_of_a_coo_input(self):
        A = sp.coo_matrix(([2.0, 3.0, 1.0], ([0, 0, 1], [1, 1, 0])),
                          shape=(2, 2))
        op = SparseOperator.from_scipy(A)
        assert op.nnz == 2
        assert np.array_equal(op.toarray(), [[0.0, 5.0], [1.0, 0.0]])

    def test_validation(self):
        with pytest.raises(ValueError):
            SparseOperator(np.ones(2), np.zeros(2), np.array([0, 1, 1]),
                           (2, 2))

    @pytest.mark.parametrize("col", [5, 3, -1])
    def test_out_of_range_columns_refused(self, col):
        """``matvec_into`` gathers unchecked; no operator reaches it with
        a column it would clip."""
        indptr = np.array([0, 1, 1, 1])
        with pytest.raises(ValueError, match="column indices"):
            SparseOperator(np.ones(1), np.array([col]), indptr, (3, 3))
        assert SparseOperator(np.ones(1), np.array([2]), indptr, (3, 3)).nnz == 1


class TestProducts:
    def test_matvec_parity_with_dense(self, poisson_pair, vector):
        _, op, dense = poisson_pair
        assert np.max(np.abs(op.matvec(vector) - dense @ vector)) < PARITY

    def test_matmul_operator(self, poisson_pair, vector):
        _, op, dense = poisson_pair
        assert np.max(np.abs((op @ vector) - dense @ vector)) < PARITY

    def test_matmul_matrix(self, poisson_pair):
        _, op, dense = poisson_pair
        V = np.random.default_rng(6).standard_normal((dense.shape[0], 3))
        assert np.max(np.abs((op @ V) - dense @ V)) < PARITY

    def test_row_slab_parity(self, poisson_pair, vector):
        _, op, dense = poisson_pair
        full = dense @ vector
        for start, stop in ((0, 5), (3, 50), (100, dense.shape[0]),
                            (7, 7)):
            slab = op.row_slab_matvec(start, stop, vector)
            assert np.max(np.abs(slab - full[start:stop]), initial=0.0) \
                < PARITY

    def test_row_slab_with_empty_rows(self):
        dense = np.zeros((5, 5))
        dense[0, 1] = 2.0
        dense[3, 4] = -1.0
        op = SparseOperator.from_scipy(sp.csr_matrix(dense))
        v = np.arange(5.0)
        assert np.array_equal(op.row_slab_matvec(0, 5, v), dense @ v)
        assert np.array_equal(op.row_slab_matvec(1, 3, v), np.zeros(2))

    def test_row_slab_bounds_checked(self, poisson_pair, vector):
        _, op, _ = poisson_pair
        with pytest.raises(ValueError):
            op.row_slab_matvec(-1, 3, vector)
        with pytest.raises(ValueError):
            op.row_slab_matvec(0, op.n + 1, vector)
        with pytest.raises(ValueError):
            op.matvec(vector[:-1])

    def test_matvec_is_the_full_row_slab_bit_for_bit(self, poisson_pair):
        """``matvec`` keeps its row offsets; the floats cannot tell."""
        rng = np.random.default_rng(7)
        gappy = rng.standard_normal((9, 9)) * (rng.random((9, 9)) < 0.3)
        gappy[[0, 4, 8]] = 0.0                  # empty first, inner, last row
        for op in (poisson_pair[1], *(
                SparseOperator.from_scipy(sp.csr_matrix(dense))
                for dense in (gappy, np.zeros((4, 4)), np.zeros((0, 0))))):
            for _ in range(3):                  # derived, then reused
                v = rng.standard_normal(op.n)
                assert op.matvec(v).tobytes() == \
                    op.row_slab_matvec(0, op.n, v).tobytes()
                assert (op @ v).tobytes() == op.matvec(v).tobytes()
            with pytest.raises(ValueError, match="vector has length"):
                op.matvec(np.ones(op.n + 1))

    @given(n=st.integers(1, 40), density=st.floats(0.0, 0.6),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matvec_into_is_matvec(self, n, density, seed):
        """The product into the caller's ``out`` and scratch, bit for bit,
        for every matrix without an empty row; with one, the engine keeps
        ``matvec`` (``has_empty_rows`` says which)."""
        rng = np.random.default_rng(seed)
        dense = (rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-6, 6, (n, n))
                 * (rng.random((n, n)) < density))
        op = SparseOperator.from_scipy(sp.csr_matrix(dense))
        assert op.has_empty_rows() == (not np.all(dense.any(axis=1)))
        np.fill_diagonal(dense, 1.0 + np.abs(np.diag(dense)))
        op = SparseOperator.from_scipy(sp.csr_matrix(dense))
        assert not op.has_empty_rows()
        out, scratch = np.full(n, np.nan), np.full(op.nnz, np.nan)
        for _ in range(2):                      # scratch reused
            v = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6, n)
            op.matvec_into(v, out, scratch)
            assert out.tobytes() == op.matvec(v).tobytes()

    @pytest.mark.parametrize("empty_row", [False, True])
    def test_pickle_neither_carries_nor_needs_the_row_offsets(self,
                                                              poisson_pair,
                                                              vector,
                                                              empty_row):
        dense = poisson_pair[2].copy()
        if empty_row:
            dense[7] = 0.0
        op = SparseOperator.from_scipy(sp.csr_matrix(dense))
        cold = pickle.dumps(op)
        expected = op.matvec(vector)
        # cached where a product needs them: only with an empty row
        assert (op._rows is not None) == empty_row
        assert len(pickle.dumps(op)) == len(cold)
        for clone in (pickle.loads(pickle.dumps(op)), copy.deepcopy(op)):
            assert type(clone) is SparseOperator and clone._rows is None
            assert clone.shape == op.shape
            assert clone.matvec(vector).tobytes() == expected.tobytes()


class TestDenseExtraction:
    def test_dense_block(self, poisson_pair):
        _, op, dense = poisson_pair
        assert np.array_equal(op.dense_block(3, 30, 40, 90),
                              dense[3:30, 40:90])

    def test_gather_dense(self, poisson_pair):
        _, op, dense = poisson_pair
        idx = np.r_[2:9, 33:41, 100:104]
        assert np.array_equal(op.gather_dense(idx),
                              dense[np.ix_(idx, idx)])

    def test_diagonal(self, poisson_pair):
        _, op, dense = poisson_pair
        assert np.array_equal(op.diagonal(), np.diag(dense))


class TestBlockedDualBackend:
    """PageBlockedMatrix must behave identically on either backend."""

    @pytest.fixture(scope="class")
    def pair(self):
        A = laplacian_2d(12, 12)
        return (PageBlockedMatrix(A, page_size=16),
                PageBlockedMatrix(SparseOperator.from_scipy(A),
                                  page_size=16))

    def test_backend_flag(self, pair):
        scipy_blocked, op_blocked = pair
        assert not scipy_blocked.uses_sparse_operator
        assert op_blocked.uses_sparse_operator

    def test_block_kernels_agree(self, pair):
        scipy_blocked, op_blocked = pair
        v = np.random.default_rng(8).standard_normal(scipy_blocked.n)
        for block in range(scipy_blocked.num_blocks):
            assert np.max(np.abs(
                scipy_blocked.block_row_product(block, v)
                - op_blocked.block_row_product(block, v))) < PARITY
            assert np.array_equal(scipy_blocked.diag_block(block),
                                  op_blocked.diag_block(block))

    def test_matvec_and_nnz_agree(self, pair):
        scipy_blocked, op_blocked = pair
        v = np.random.default_rng(9).standard_normal(scipy_blocked.n)
        assert np.max(np.abs(scipy_blocked.matvec(v)
                             - op_blocked.matvec(v))) < PARITY
        assert scipy_blocked.A.nnz == op_blocked.A.nnz
        for block in range(scipy_blocked.num_blocks):
            assert (scipy_blocked.nnz_of_block(block)
                    == op_blocked.nnz_of_block(block))

    def test_solves_agree(self, pair):
        scipy_blocked, op_blocked = pair
        rhs = np.random.default_rng(10).standard_normal(
            scipy_blocked.block_size(1))
        assert np.allclose(scipy_blocked.solve_diag(1, rhs),
                           op_blocked.solve_diag(1, rhs), atol=PARITY)
        coupled_rhs = np.concatenate([rhs, rhs])
        assert np.allclose(
            scipy_blocked.coupled_diag_solve([0, 2], coupled_rhs),
            op_blocked.coupled_diag_solve([0, 2], coupled_rhs), atol=PARITY)

    def test_row_slabs_agree(self, pair):
        """The rank runtime's strips: the same CSR rows on either
        backend, built once per range, and no range past the matrix."""
        scipy_blocked, op_blocked = pair
        n = scipy_blocked.n
        for start, stop in [(0, n), (0, 16), (17, 53), (n - 5, n), (9, 9)]:
            a = scipy_blocked.row_slab(start, stop)
            b = op_blocked.row_slab(start, stop)
            assert a.shape == b.shape == (stop - start, n)
            assert np.array_equal(a.toarray(), b.toarray())
            assert np.array_equal(
                a.toarray(), scipy_blocked.A.toarray()[start:stop])
            assert op_blocked.row_slab(start, stop) is b
        for start, stop in [(-1, 4), (5, 4), (0, n + 1)]:
            for blocked in pair:
                with pytest.raises(ValueError, match="out of range"):
                    blocked.row_slab(start, stop)

    def test_range_products_are_slices_of_the_full_matvec(self, pair):
        """Strip products reassemble the full product bit for bit on
        each backend."""
        v = np.random.default_rng(11).standard_normal(pair[0].n)
        for blocked in pair:
            full = blocked.matvec(v)
            strips = [blocked.range_product(start, min(start + 37, blocked.n),
                                            v)
                      for start in range(0, blocked.n, 37)]
            assert np.concatenate(strips).tobytes() == full.tobytes()


class TestSolverFastPath:
    """The resilient solver produces identical numerics on both backends."""

    def test_feir_solve_parity(self):
        from repro.core.manager import make_strategy
        from repro.faults.scenarios import single_error_scenario
        from repro.solvers.resilient_cg import ResilientCG, SolverConfig

        A = laplacian_2d(13, 9)
        op = SparseOperator.from_scipy(A)
        b = stencil_rhs(A, kind="random", seed=3)
        cfg = SolverConfig(num_workers=4, page_size=16)

        ideal = ResilientCG(A, b, config=cfg).solve()
        scenario = single_error_scenario("x", page=2,
                                         time=0.4 * ideal.record.solve_time)
        runs = {}
        for label, matrix in (("scipy", A), ("operator", op)):
            solver = ResilientCG(matrix, b, strategy=make_strategy("FEIR"),
                                 scenario=scenario, config=cfg)
            runs[label] = solver.solve(ideal_time=ideal.record.solve_time)
        assert runs["scipy"].record.iterations \
            == runs["operator"].record.iterations
        assert runs["scipy"].record.solve_time \
            == runs["operator"].record.solve_time
        assert np.max(np.abs(runs["scipy"].x - runs["operator"].x)) < PARITY

    def test_reference_cg_accepts_operator(self):
        from repro.solvers.reference import conjugate_gradient
        A = laplacian_2d(10)
        op = SparseOperator.from_scipy(A)
        b = stencil_rhs(A)
        ref = conjugate_gradient(A, b, tol=1e-10)
        fast = conjugate_gradient(op, b, tol=1e-10)
        assert ref.converged and fast.converged
        assert ref.iterations == fast.iterations
        assert np.max(np.abs(ref.x - fast.x)) < PARITY


def _random_operator(rng, n, density, empty_rows):
    """A random square operator with (``empty_rows``) or without a row
    that holds no nonzero."""
    dense = (rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3, (n, n))
             * (rng.random((n, n)) < density))
    np.fill_diagonal(dense, 1.0 + np.abs(np.diag(dense)))
    if empty_rows:
        dense[rng.choice(n, size=max(1, n // 4), replace=False)] = 0.0
    return dense


class TestRewrittenKernels:
    """The vectorised gather and the row-offset-free slab products against
    references that share no code with them."""

    @given(n=st.integers(1, 40), density=st.floats(0.0, 0.6),
           empty_rows=st.booleans(), order=st.sampled_from(
               ["random", "unsorted", "duplicates"]),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_gather_dense_is_scipy_fancy_indexing(self, n, density,
                                                  empty_rows, order, seed):
        rng = np.random.default_rng(seed)
        dense = _random_operator(rng, n, density, empty_rows)
        A = sp.csr_matrix(dense)
        op = SparseOperator.from_scipy(A)
        assert op.has_empty_rows() == empty_rows
        k = int(rng.integers(1, n + 1))
        if order == "random":
            idx = np.sort(rng.choice(n, size=k, replace=False))
        elif order == "unsorted":
            idx = rng.permutation(n)[:k]
        else:
            idx = rng.integers(0, n, size=2 * k)
        assert np.array_equal(op.gather_dense(idx),
                              A[idx][:, idx].toarray())

    def test_gather_dense_refuses_no_index(self, poisson_pair):
        with pytest.raises(ValueError):
            poisson_pair[1].gather_dense([])

    @given(n=st.integers(1, 60), density=st.floats(0.0, 0.6),
           empty_rows=st.booleans(), page_size=st.integers(1, 25),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_slab_products_are_slices_of_the_full_matvec(
            self, n, density, empty_rows, page_size, seed):
        rng = np.random.default_rng(seed)
        op = SparseOperator.from_scipy(sp.csr_matrix(
            _random_operator(rng, n, density, empty_rows)))
        assert op.has_empty_rows() == empty_rows
        v = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
        full = op.matvec(v)
        for _ in range(4):
            start, stop = sorted(int(i) for i in rng.integers(0, n + 1, 2))
            assert op.row_slab_matvec(start, stop, v).tobytes() == \
                full[start:stop].tobytes()
        blocked = PageBlockedMatrix(op, page_size=page_size)
        for block in range(blocked.num_blocks):
            assert blocked.block_row_product(block, v).tobytes() == \
                full[blocked.block_slice(block)].tobytes()
