"""SciPy-free CSR operator with row-slab kernels (the campaign fast path).

Large fault-injection campaigns run thousands of solver trials, many of
them inside worker processes of a process pool.  Shipping SciPy sparse
matrices through the pool (or materialising dense ``n x n`` arrays for
the recovery relations) dominates the trial cost long before the solver
does at ``n >= 10^4``.  :class:`SparseOperator` is a minimal CSR
container built only on NumPy arrays that provides exactly the kernels
the page-blocked solver and the Table 1 recovery relations need:

* ``matvec`` / ``row_slab_matvec`` — full and row-range products, both
  implemented with one ``np.add.reduceat`` over the slab's nonzeros, so
  recovering a page costs O(nnz of the block row), never O(n^2);
* ``dense_block`` — a dense rectangular sub-block (diagonal blocks for
  the LU solves, column slabs for least-squares interpolation);
* ``gather_dense`` — the dense principal submatrix over a set of rows
  (the coupled multi-page recovery solve of Section 2.4).

:class:`~repro.matrices.blocked.PageBlockedMatrix` accepts either a
SciPy sparse matrix or a :class:`SparseOperator` and dispatches every
block kernel accordingly, so the solver, FEIR/AFEIR recovery and the
relations are backend-agnostic.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np


class SparseOperator:
    """Immutable CSR matrix backed by plain NumPy arrays.

    Parameters
    ----------
    data, indices, indptr:
        Standard CSR arrays.  Column indices must be sorted within each
        row and contain no duplicates (all constructors guarantee this).
    shape:
        Matrix shape ``(rows, cols)``.
    """

    __slots__ = ("data", "indices", "indptr", "shape", "_rows")

    def __init__(self, data: np.ndarray, indices: np.ndarray,
                 indptr: np.ndarray, shape: Tuple[int, int]):
        self.data = np.asarray(data, dtype=np.float64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.shape = (int(shape[0]), int(shape[1]))
        self._rows = None  # of matvec, derived on first use, never shipped
        if self.indptr.shape[0] != self.shape[0] + 1:
            raise ValueError(f"indptr must have {self.shape[0] + 1} entries, "
                             f"got {self.indptr.shape[0]}")
        if self.data.shape[0] != self.indices.shape[0]:
            raise ValueError("data and indices must have the same length")
        if int(self.indptr[-1]) != self.data.shape[0]:
            raise ValueError("indptr[-1] must equal nnz")

    def __reduce__(self):  # the arrays only: a pickle carries no ``_rows``
        return type(self), (self.data, self.indices, self.indptr, self.shape)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, array: np.ndarray) -> "SparseOperator":
        """CSR view of a dense 2-d array (zeros dropped)."""
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 2:
            raise ValueError("from_dense needs a 2-d array")
        rows, cols = np.nonzero(array)
        counts = np.bincount(rows, minlength=array.shape[0])
        indptr = np.zeros(array.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(array[rows, cols], cols, indptr, array.shape)

    @classmethod
    def from_scipy(cls, A) -> "SparseOperator":
        """Convert anything SciPy-sparse-like (has ``tocsr``)."""
        csr = A.tocsr()
        if hasattr(csr, "sort_indices"):
            csr.sort_indices()
        return cls(np.array(csr.data, dtype=np.float64, copy=True),
                   np.array(csr.indices, dtype=np.int64, copy=True),
                   np.array(csr.indptr, dtype=np.int64, copy=True),
                   csr.shape)

    @classmethod
    def from_coo(cls, rows: Iterable[int], cols: Iterable[int],
                 values: Iterable[float],
                 shape: Tuple[int, int]) -> "SparseOperator":
        """Build from COO triplets; duplicate entries are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not (rows.shape == cols.shape == values.shape):
            raise ValueError("rows, cols and values must have the same length")
        order = np.lexsort((cols, rows))
        rows, cols, values = rows[order], cols[order], values[order]
        if rows.size:
            fresh = np.empty(rows.size, dtype=bool)
            fresh[0] = True
            fresh[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            starts = np.flatnonzero(fresh)
            values = np.add.reduceat(values, starts)
            rows, cols = rows[starts], cols[starts]
        counts = np.bincount(rows, minlength=shape[0])
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(values, cols, indptr, shape)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.shape[0]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def dtype(self):
        return self.data.dtype

    # ------------------------------------------------------------------
    # products
    # ------------------------------------------------------------------
    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``A @ v`` for a 1-d vector ``v`` (its row offsets computed once)."""
        if self._rows is None:
            self._rows = self._row_offsets(0, self.shape[0])
        return self._slab_matvec(0, self.shape[0], v, self._rows)

    def row_slab_matvec(self, start: int, stop: int,
                        v: np.ndarray) -> np.ndarray:
        """``(A @ v)[start:stop]`` touching only the slab's nonzeros."""
        return self._slab_matvec(start, stop, v, None)

    def _row_offsets(self, start: int, stop: int):
        """The slab's non-empty rows and where each one's nonzeros begin."""
        nonempty = np.flatnonzero(np.diff(self.indptr[start:stop + 1]))
        return nonempty, (self.indptr[start:stop] - self.indptr[start])[nonempty]

    def _slab_matvec(self, start, stop, v, rows) -> np.ndarray:
        if not (0 <= start <= stop <= self.shape[0]):
            raise ValueError(f"row slab [{start}, {stop}) out of range "
                             f"for {self.shape[0]} rows")
        v = np.asarray(v)
        if v.shape[0] != self.shape[1]:
            raise ValueError(f"vector has length {v.shape[0]}, "
                             f"expected {self.shape[1]}")
        p0 = int(self.indptr[start])
        p1 = int(self.indptr[stop])
        out = np.zeros(stop - start, dtype=np.float64)
        if p1 == p0:
            return out
        prod = self.data[p0:p1] * v[self.indices[p0:p1]]
        # reduceat over the offsets of the non-empty rows: consecutive
        # offsets delimit exactly one row's nonzeros (empty rows own none).
        nonempty, offsets = rows or self._row_offsets(start, stop)
        out[nonempty] = np.add.reduceat(prod, offsets)
        return out

    def __matmul__(self, other):
        other = np.asarray(other)
        if other.ndim == 1:
            return self.matvec(other)
        if other.ndim == 2:
            out = np.empty((self.shape[0], other.shape[1]), dtype=np.float64)
            for j in range(other.shape[1]):
                out[:, j] = self.matvec(other[:, j])
            return out
        raise ValueError("can only multiply by 1-d or 2-d arrays")

    # ------------------------------------------------------------------
    # dense extraction (small blocks only)
    # ------------------------------------------------------------------
    def dense_block(self, row_start: int, row_stop: int,
                    col_start: int, col_stop: int) -> np.ndarray:
        """Dense copy of ``A[row_start:row_stop, col_start:col_stop]``."""
        if not (0 <= row_start <= row_stop <= self.shape[0]):
            raise ValueError("row range out of bounds")
        if not (0 <= col_start <= col_stop <= self.shape[1]):
            raise ValueError("column range out of bounds")
        out = np.zeros((row_stop - row_start, col_stop - col_start))
        p0 = int(self.indptr[row_start])
        p1 = int(self.indptr[row_stop])
        if p1 == p0:
            return out
        rows = np.repeat(np.arange(row_stop - row_start),
                         np.diff(self.indptr[row_start:row_stop + 1]))
        cols = self.indices[p0:p1]
        mask = (cols >= col_start) & (cols < col_stop)
        out[rows[mask], cols[mask] - col_start] = self.data[p0:p1][mask]
        return out

    def gather_dense(self, indices: Sequence[int]) -> np.ndarray:
        """Dense principal submatrix ``A[indices][:, indices]``."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("need at least one index")
        sorter = np.argsort(idx, kind="stable")
        sorted_idx = idx[sorter]
        out = np.zeros((idx.size, idx.size))
        for k, row in enumerate(idx):
            seg = slice(int(self.indptr[row]), int(self.indptr[row + 1]))
            cols = self.indices[seg]
            pos = np.searchsorted(sorted_idx, cols)
            pos = np.minimum(pos, idx.size - 1)
            hit = sorted_idx[pos] == cols
            out[k, sorter[pos[hit]]] = self.data[seg][hit]
        return out

    def diagonal(self) -> np.ndarray:
        """The main diagonal as a dense vector."""
        out = np.zeros(min(self.shape))
        for row in range(out.shape[0]):
            seg = slice(int(self.indptr[row]), int(self.indptr[row + 1]))
            hits = np.flatnonzero(self.indices[seg] == row)
            if hits.size:
                out[row] = self.data[seg][hits[0]]
        return out

    def toarray(self) -> np.ndarray:
        """Full dense copy (tests and tiny matrices only)."""
        return self.dense_block(0, self.shape[0], 0, self.shape[1])

    def row_slab_nnz(self, start: int, stop: int) -> int:
        """Number of nonzeros in rows ``[start, stop)``."""
        return int(self.indptr[stop] - self.indptr[start])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SparseOperator(shape={self.shape}, nnz={self.nnz})")


def ensure_operator(A) -> SparseOperator:
    """Coerce a SciPy matrix / dense array / operator to a SparseOperator."""
    if isinstance(A, SparseOperator):
        return A
    if hasattr(A, "tocsr"):
        return SparseOperator.from_scipy(A)
    return SparseOperator.from_dense(np.asarray(A))


# ----------------------------------------------------------------------
# SciPy-free stencil builders (campaign matrix families)
# ----------------------------------------------------------------------
def laplacian_1d_operator(n: int, shift: float = 0.0) -> SparseOperator:
    """1-D Dirichlet Laplacian ([-1, 2, -1]) built without SciPy."""
    if n < 1:
        raise ValueError("n must be >= 1")
    diag = np.arange(n)
    rows = [diag, diag[:-1], diag[1:]]
    cols = [diag, diag[1:], diag[:-1]]
    vals = [np.full(n, 2.0 + shift), np.full(n - 1, -1.0),
            np.full(n - 1, -1.0)]
    return SparseOperator.from_coo(np.concatenate(rows),
                                   np.concatenate(cols),
                                   np.concatenate(vals), (n, n))


def laplacian_2d_operator(nx: int, ny: int = None,
                          shift: float = 0.0) -> SparseOperator:
    """2-D 5-point Laplacian on an ``nx x ny`` grid, built without SciPy."""
    ny = nx if ny is None else ny
    if min(nx, ny) < 1:
        raise ValueError("grid dimensions must be >= 1")
    n = nx * ny
    idx = np.arange(n).reshape(ny, nx)
    rows, cols, vals = [], [], []
    rows.append(idx.ravel())
    cols.append(idx.ravel())
    vals.append(np.full(n, 4.0 + shift))
    for src, dst in (((slice(None), slice(0, nx - 1)),
                      (slice(None), slice(1, nx))),
                     ((slice(0, ny - 1), slice(None)),
                      (slice(1, ny), slice(None)))):
        a = idx[src].ravel()
        b = idx[dst].ravel()
        rows.extend((a, b))
        cols.extend((b, a))
        vals.extend((np.full(a.size, -1.0), np.full(a.size, -1.0)))
    return SparseOperator.from_coo(np.concatenate(rows),
                                   np.concatenate(cols),
                                   np.concatenate(vals), (n, n))
