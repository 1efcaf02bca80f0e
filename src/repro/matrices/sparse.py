"""SciPy-free CSR operator with row-slab kernels (the campaign fast path).

Large fault-injection campaigns run thousands of solver trials, and
every exact recovery multiplies block rows of the matrix; materialising
dense ``n x n`` arrays for the recovery relations would dominate the
trial cost long before the solver does at ``n >= 10^4``.  (No matrix
crosses a process pool: each process builds its own from its
:class:`~repro.campaign.spec.MatrixSpec`.)  :class:`SparseOperator` is
a minimal CSR container built only on NumPy arrays that provides
exactly the kernels the page-blocked solver and the Table 1 recovery
relations need:

* ``matvec`` / ``row_slab_matvec`` — full and row-range products, both
  implemented with one ``np.add.reduceat`` over the slab's nonzeros, so
  recovering a page costs O(nnz of the block row), never O(n^2);
  ``matvec_into`` is ``matvec`` into the caller's output and scratch (the
  operator holds no scratch of its own: it is immutable, and rank
  threads multiply with one operator concurrently);
* ``dense_block`` — a dense rectangular sub-block (the diagonal blocks
  for the LU solves);
* ``gather_dense`` — the dense principal submatrix over a set of rows
  (the coupled multi-page recovery solve of Section 2.4).

:class:`~repro.matrices.blocked.PageBlockedMatrix` accepts either a
SciPy sparse matrix or a :class:`SparseOperator` and dispatches every
block kernel accordingly, so the solver, FEIR/AFEIR recovery and the
relations are backend-agnostic — in code, not in bits: ``matvec`` adds
a row's products in another order than SciPy's ``A @ v``, and the two
differ in at least one bit for almost every ``v``.  ``MatrixSpec.sparse``
therefore selects results as well as speed.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


class SparseOperator:
    """Immutable CSR matrix backed by plain NumPy arrays.

    Parameters
    ----------
    data, indices, indptr:
        Standard CSR arrays.  Column indices must be sorted within each
        row and contain no duplicates (all constructors guarantee this);
        an index outside ``[0, cols)`` is refused.
    shape:
        Matrix shape ``(rows, cols)``.
    """

    __slots__ = ("data", "indices", "indptr", "shape", "_rows", "_empty_rows")

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
        if self.indices.size and not (
                0 <= self.indices.min() and self.indices.max() < self.shape[1]):
            raise ValueError(f"column indices must lie in [0, {self.shape[1]})")
        #: Decided once: without empty rows a slab's rows are its
        #: ``reduceat`` segments, so no product looks for them.
        self._empty_rows = bool(np.any(self.indptr[1:] == self.indptr[:-1]))

    def __reduce__(self):  # the arrays only: a pickle carries no ``_rows``
        return type(self), (self.data, self.indices, self.indptr, self.shape)

    # ------------------------------------------------------------------
    # constructor
    # ------------------------------------------------------------------
    @classmethod
    def from_scipy(cls, A) -> "SparseOperator":
        """Convert anything SciPy-sparse-like (has ``tocsr``)."""
        csr = A.tocsr()     # may be ``A`` itself: sort a copy, not it
        if not getattr(csr, "has_sorted_indices", True):
            csr = csr.sorted_indices()
        return cls(np.array(csr.data, dtype=np.float64, copy=True),
                   np.array(csr.indices, dtype=np.int64, copy=True),
                   np.array(csr.indptr, dtype=np.int64, copy=True),
                   csr.shape)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.shape[0]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    # ------------------------------------------------------------------
    # products
    # ------------------------------------------------------------------
    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``A @ v`` for a 1-d vector ``v`` (the row offsets of an operator
        with empty rows computed once; one without needs none)."""
        if self._rows is None and self._empty_rows:
            self._rows = self._row_offsets(0, self.shape[0])
        return self._slab_matvec(0, self.shape[0], v, self._rows)

    def has_empty_rows(self) -> bool:
        """True if some row holds no nonzero (:meth:`matvec_into` needs none)."""
        return self._empty_rows

    def matvec_into(self, v: np.ndarray, out: np.ndarray,
                    scratch: np.ndarray) -> None:
        """``out <- A @ v`` allocating nothing, bit for bit :meth:`matvec`.

        ``scratch`` (``nnz`` doubles, the caller's) holds the products.
        Only for a matrix without empty rows: each row's nonzeros are then
        the ``reduceat`` segment that starts at its ``indptr`` entry.  The
        column indices are in range (``__init__`` refuses any other), so
        the gather need not check them.
        """
        v.take(self.indices, out=scratch, mode="clip")
        np.multiply(self.data, scratch, out=scratch)
        np.add.reduceat(scratch, self.indptr[:-1], out=out)

    def row_slab_matvec(self, start: int, stop: int,
                        v: np.ndarray) -> np.ndarray:
        """``(A @ v)[start:stop]`` touching only the slab's nonzeros; the
        row offsets are looked for only if the operator has empty rows."""
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
        if p1 == p0:
            return np.zeros(stop - start, dtype=np.float64)
        prod = self.data[p0:p1] * v[self.indices[p0:p1]]
        # reduceat over the offsets of the non-empty rows: consecutive
        # offsets delimit exactly one row's nonzeros (empty rows own none).
        if not self._empty_rows:  # every row is non-empty: its own offset
            offsets = self.indptr[start:stop]
            return np.add.reduceat(prod, offsets - p0 if p0 else offsets)
        nonempty, offsets = rows or self._row_offsets(start, stop)
        out = np.zeros(stop - start, dtype=np.float64)
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
        """Dense principal submatrix ``A[indices][:, indices]``, in any
        index order, repeats included: one scatter of the gathered rows'
        nonzeros that fall in a gathered column."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("need at least one index")
        sorter = np.argsort(idx, kind="stable")
        sorted_idx = idx[sorter]
        first = self.indptr[idx]
        counts = self.indptr[idx + 1] - first
        # Every gathered nonzero: its storage position and output row.
        before = np.cumsum(counts) - counts
        pos = np.arange(counts.sum()) + np.repeat(first - before, counts)
        rows = np.repeat(np.arange(idx.size), counts)
        cols = self.indices[pos]
        # The sorted slots ``lo, lo + 1, ...`` hold each column's copies.
        lo = np.searchsorted(sorted_idx, cols, side="left")
        copies = np.searchsorted(sorted_idx, cols, side="right") - lo
        hit = np.repeat(np.arange(pos.size), copies)
        slot = np.arange(hit.size) + np.repeat(lo - (np.cumsum(copies) - copies),
                                               copies)
        out = np.zeros((idx.size, idx.size))
        out[rows[hit], sorter[slot]] = self.data[pos[hit]]
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SparseOperator(shape={self.shape}, nnz={self.nnz})")

