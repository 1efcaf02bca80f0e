"""SparseOperator (SciPy-free CSR) parity and fast-path tests."""

import copy
import pickle

import numpy as np
import pytest

from repro.matrices.blocked import PageBlockedMatrix
from repro.matrices.laplacian import laplacian_1d
from repro.matrices.sparse import (SparseOperator, ensure_operator,
                                   laplacian_1d_operator,
                                   laplacian_2d_operator)
from repro.matrices.stencil import poisson_2d_5pt, stencil_rhs

PARITY = 1e-12


@pytest.fixture(scope="module")
def poisson_pair():
    """(scipy CSR, SparseOperator, dense) of the same 2-D Poisson matrix."""
    A = poisson_2d_5pt(13, 9)
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

    def test_from_dense_roundtrip(self, poisson_pair):
        dense = poisson_pair[2]
        assert np.array_equal(SparseOperator.from_dense(dense).toarray(),
                              dense)

    def test_from_coo_sums_duplicates(self):
        op = SparseOperator.from_coo([0, 0, 1], [1, 1, 0], [2.0, 3.0, 1.0],
                                     (2, 2))
        assert np.array_equal(op.toarray(), [[0.0, 5.0], [1.0, 0.0]])

    def test_validation(self):
        with pytest.raises(ValueError):
            SparseOperator(np.ones(2), np.zeros(2), np.array([0, 1, 1]),
                           (2, 2))

    def test_ensure_operator_idempotent(self, poisson_pair):
        _, op, _ = poisson_pair
        assert ensure_operator(op) is op
        assert isinstance(ensure_operator(poisson_pair[0]), SparseOperator)
        assert isinstance(ensure_operator(np.eye(3)), SparseOperator)

    def test_scipy_free_builders_match_scipy(self):
        assert np.array_equal(laplacian_1d_operator(9, shift=0.25).toarray(),
                              laplacian_1d(9, shift=0.25).toarray())
        assert np.array_equal(laplacian_2d_operator(7, 5).toarray(),
                              poisson_2d_5pt(7, 5).toarray())


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
        op = SparseOperator.from_dense(dense)
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
        for op in (poisson_pair[1], SparseOperator.from_dense(gappy),
                   SparseOperator.from_dense(np.zeros((4, 4))),
                   SparseOperator.from_dense(np.zeros((0, 0)))):
            for _ in range(3):                  # derived, then reused
                v = rng.standard_normal(op.n)
                assert op.matvec(v).tobytes() == \
                    op.row_slab_matvec(0, op.n, v).tobytes()
                assert (op @ v).tobytes() == op.matvec(v).tobytes()
            with pytest.raises(ValueError, match="vector has length"):
                op.matvec(np.ones(op.n + 1))

    def test_pickle_neither_carries_nor_needs_the_row_offsets(self,
                                                              poisson_pair,
                                                              vector):
        op = SparseOperator.from_scipy(poisson_pair[0])
        cold = pickle.dumps(op)
        expected = op.matvec(vector)
        assert op._rows is not None
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
        A = poisson_2d_5pt(12, 12)
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
            assert np.max(np.abs(
                scipy_blocked.offdiag_product(block, v)
                - op_blocked.offdiag_product(block, v))) < PARITY

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

    def test_column_block_dense_agree(self, pair):
        scipy_blocked, op_blocked = pair
        assert np.array_equal(scipy_blocked.column_block_dense(2),
                              op_blocked.column_block_dense(2))

    def test_row_block_agree(self, pair):
        scipy_blocked, op_blocked = pair
        assert np.array_equal(scipy_blocked.row_block(1).toarray(),
                              op_blocked.row_block(1).toarray())


class TestSolverFastPath:
    """The resilient solver produces identical numerics on both backends."""

    def test_feir_solve_parity(self):
        from repro.core.manager import make_strategy
        from repro.faults.scenarios import single_error_scenario
        from repro.solvers.resilient_cg import ResilientCG, SolverConfig

        A = poisson_2d_5pt(13, 9)
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
        A = poisson_2d_5pt(10)
        op = SparseOperator.from_scipy(A)
        b = stencil_rhs(A)
        ref = conjugate_gradient(A, b, tol=1e-10)
        fast = conjugate_gradient(op, b, tol=1e-10)
        assert ref.converged and fast.converged
        assert ref.iterations == fast.iterations
        assert np.max(np.abs(ref.x - fast.x)) < PARITY
