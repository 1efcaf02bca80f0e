"""Page-blocked view of a sparse matrix.

All recovery relations of Table 1 are expressed per block of rows, where
a block is the set of rows whose vector entries live on one memory page
(512 values).  This class provides, for a CSR matrix ``A``:

* ``diag_block(i)``     — the dense diagonal block ``A_ii``,
* ``offdiag_product(i, v)`` — ``sum_{j != i} A_ij v_j`` computed as the
  full block-row product minus the diagonal-block contribution,
* cached LU factorisations of the diagonal blocks, shared between the
  block-Jacobi preconditioner and the recovery interpolations (the paper
  notes this sharing makes recovery cheaper when block-Jacobi is used).

Two storage backends are supported and dispatched on transparently: a
SciPy CSR matrix, or the SciPy-free
:class:`~repro.matrices.sparse.SparseOperator` whose row-slab kernels
avoid materialising any dense ``n x n`` (or sliced sparse) intermediate —
the fast path used by large fault-injection campaigns.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from repro.config import PAGE_DOUBLES
from repro.matrices.sparse import SparseOperator
from repro.memory.pages import page_count, page_slice

#: Double-precision LU solve (the routine ``lu_solve`` picks for float64).
_GETRS, = la.get_lapack_funcs(("getrs",), (np.empty((1, 1)),))


class PageBlockedMatrix:
    """CSR matrix with page-aligned row-block structure and cached factors."""

    def __init__(self, A: Union[sp.spmatrix, SparseOperator, np.ndarray],
                 page_size: int = PAGE_DOUBLES):
        if not isinstance(A, SparseOperator):
            A = sp.csr_matrix(A)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"matrix must be square, got {A.shape}")
        if page_size <= 0:
            raise ValueError("page size must be positive")
        self.A = A
        self.n = A.shape[0]
        self.page_size = int(page_size)
        self.num_blocks = page_count(self.n, self.page_size)
        self._diag_blocks: Dict[int, np.ndarray] = {}
        self._lu_factors: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._slab_cache: Dict[Tuple[int, int], sp.csr_matrix] = {}

    # ------------------------------------------------------------------
    def block_slice(self, block: int) -> slice:
        """Row/column index slice of ``block``."""
        return page_slice(block, self.n, self.page_size)

    def block_size(self, block: int) -> int:
        sl = self.block_slice(block)
        return sl.stop - sl.start

    @property
    def uses_sparse_operator(self) -> bool:
        """True when the SciPy-free fast-path backend is in use."""
        return isinstance(self.A, SparseOperator)

    def diag_block(self, block: int) -> np.ndarray:
        """Dense diagonal block ``A_ii`` (cached)."""
        if block not in self._diag_blocks:
            sl = self.block_slice(block)
            if self.uses_sparse_operator:
                self._diag_blocks[block] = self.A.dense_block(
                    sl.start, sl.stop, sl.start, sl.stop)
            else:
                self._diag_blocks[block] = (
                    self.A[sl.start:sl.stop, sl.start:sl.stop].toarray())
        return self._diag_blocks[block]

    def diag_factor(self, block: int):
        """LU factorisation of the diagonal block (cached)."""
        if block not in self._lu_factors:
            self._lu_factors[block] = la.lu_factor(self.diag_block(block))
        return self._lu_factors[block]

    def has_cached_factor(self, block: int) -> bool:
        """True if the diagonal block's factorisation is already available."""
        return block in self._lu_factors

    def precompute_factors(self, blocks: Optional[List[int]] = None) -> None:
        """Factorise the requested (default: all) diagonal blocks up front."""
        for block in (range(self.num_blocks) if blocks is None else blocks):
            self.diag_factor(block)

    # ------------------------------------------------------------------
    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Full product ``A v`` on whichever backend is in use."""
        return self.A @ v

    def row_slab(self, start: int, stop: int) -> sp.csr_matrix:
        """CSR of rows ``[start, stop)`` over all columns (cached).

        Works on both backends; the rank runtime uses it to hand each
        rank its strip of the matrix.
        """
        if not 0 <= start <= stop <= self.n:
            raise ValueError(f"row slab [{start}, {stop}) out of range "
                             f"for {self.n} rows")
        key = (start, stop)
        if key not in self._slab_cache:
            if self.uses_sparse_operator:
                p0 = int(self.A.indptr[start])
                p1 = int(self.A.indptr[stop])
                slab = sp.csr_matrix(
                    (self.A.data[p0:p1], self.A.indices[p0:p1],
                     self.A.indptr[start:stop + 1] - p0),
                    shape=(stop - start, self.n))
            else:
                slab = self.A[start:stop, :].tocsr()
            self._slab_cache[key] = slab
        return self._slab_cache[key]

    def range_product(self, start: int, stop: int,
                      v: np.ndarray) -> np.ndarray:
        """``(A v)[start:stop]`` computed with the backend's own kernel.

        The result is bitwise equal to slicing the full product: both
        backends accumulate each row's nonzeros in storage order, so a
        strip-partitioned mat-vec reassembles the single-address-space
        one exactly.
        """
        if self.uses_sparse_operator:
            return self.A.row_slab_matvec(start, stop, v)
        return self.row_slab(start, stop) @ v

    def block_row_product(self, block: int, v: np.ndarray) -> np.ndarray:
        """``(A v)`` restricted to the rows of ``block``."""
        sl = self.block_slice(block)
        return self.range_product(sl.start, sl.stop, v)

    def column_block_dense(self, block: int) -> np.ndarray:
        """Dense copy of the full columns of ``block`` (n x block_size).

        Only the least-squares interpolation needs this tall-skinny
        block; both backends produce it without an ``n x n`` dense
        intermediate.
        """
        sl = self.block_slice(block)
        if self.uses_sparse_operator:
            return self.A.dense_block(0, self.n, sl.start, sl.stop)
        return self.A[:, sl.start:sl.stop].toarray()

    def offdiag_product(self, block: int, v: np.ndarray) -> np.ndarray:
        """``sum_{j != i} A_ij v_j`` for rows in block ``i``."""
        sl = self.block_slice(block)
        full = self.block_row_product(block, v)
        diag_part = self.diag_block(block) @ v[sl.start:sl.stop]
        return full - diag_part

    def solve_diag(self, block: int, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A_ii y = rhs`` with the cached LU factors.

        LAPACK ``getrs`` called directly: what ``scipy.linalg.lu_solve``
        calls after its checks, bit for bit, without their per-call cost.
        A non-finite ``rhs`` raises the ``ValueError`` ``lu_solve`` raises.
        """
        rhs = np.asarray(rhs, dtype=np.float64)
        expected = self.block_size(block)
        if rhs.shape[0] != expected:
            raise ValueError(f"rhs for block {block} must have {expected} "
                             f"entries, got {rhs.shape[0]}")
        if not np.isfinite(rhs).all():
            raise ValueError("array must not contain infs or NaNs")
        lu, piv = self.diag_factor(block)
        x, info = _GETRS(lu, piv, rhs)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of "
                             f"internal getrs")
        return x

    def coupled_diag_solve(self, blocks: List[int], rhs: np.ndarray) -> np.ndarray:
        """Solve the coupled system over several diagonal blocks.

        Used when simultaneous errors hit different pages of the same
        vector (Section 2.4, case 1): the unknowns are the union of the
        lost blocks and the system matrix is the corresponding principal
        submatrix of ``A``.
        """
        if not blocks:
            raise ValueError("need at least one block")
        blocks = sorted(set(blocks))
        indices = np.concatenate([np.arange(self.block_slice(b).start,
                                            self.block_slice(b).stop)
                                  for b in blocks])
        if self.uses_sparse_operator:
            sub = self.A.gather_dense(indices)
        else:
            sub = self.A[indices][:, indices].toarray()
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape[0] != indices.size:
            raise ValueError(f"rhs must have {indices.size} entries, "
                             f"got {rhs.shape[0]}")
        return np.linalg.solve(sub, rhs)

    # ------------------------------------------------------------------
    def nnz_of_block(self, block: int) -> int:
        """Number of nonzeros in the rows of ``block`` (for the cost model)."""
        sl = self.block_slice(block)
        indptr = self.A.indptr
        return int(indptr[sl.stop] - indptr[sl.start])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PageBlockedMatrix(n={self.n}, blocks={self.num_blocks}, "
                f"page_size={self.page_size})")
