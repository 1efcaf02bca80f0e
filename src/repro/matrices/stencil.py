"""Finite-difference stencil operators.

The 27-point stencil is the operator used by the paper's scaling study
(Section 5.5) and by the HPCG benchmark: every interior grid point
couples to all 26 neighbours of its 3x3x3 neighbourhood with weight -1
and to itself with weight 26, yielding a symmetric positive definite
matrix (a compact discretisation of -Laplace).

The builder writes the CSR arrays directly, each allocated once at its
final length: no COO triplets, no concatenation, no sort.  Its peak
traced memory is about 1.1x the finished matrix's bytes, so the
build's transient does not set the process's peak RSS.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.faults.injector import derive_rng


def poisson_3d_27pt(nx: int, ny: Optional[int] = None,
                    nz: Optional[int] = None) -> sp.csr_matrix:
    """27-point stencil operator on an ``nx x ny x nz`` grid (HPCG style).

    Diagonal is 26, every neighbour in the 3x3x3 box contributes -1.
    Boundary points simply have fewer neighbours (matrix stays SPD,
    strictly diagonally dominant).

    Row ``(z, y, x)`` (x fastest) has ``cz * cy * cx`` entries, each
    axis count being 3 less the grid edges the point touches, so
    ``indptr`` is the running sum of those closed-form counts.
    ``indices`` and ``data`` are then filled one offset at a time in
    ``(dz, dy, dx)`` order from -1 to 1, which is ascending column order
    within a row: every row keeps a write cursor that each offset
    advances over its in-range sub-box.  The result is canonical
    (sorted, no duplicates), with int32 indices while ``max(nnz, n)``
    fits, as ``coo_matrix.tocsr`` would give.
    """
    ny = nx if ny is None else ny
    nz = nx if nz is None else nz
    if min(nx, ny, nz) < 1:
        raise ValueError("grid dimensions must be >= 1")
    n = nx * ny * nz
    nnz = (3 * nx - 2) * (3 * ny - 2) * (3 * nz - 2)
    index = np.int32 if max(nnz, n) <= np.iinfo(np.int32).max else np.int64

    def axis_counts(m: int) -> np.ndarray:
        counts = np.full(m, 3, dtype=index)
        counts[0] -= 1
        counts[-1] -= 1
        return counts

    cz, cy, cx = axis_counts(nz), axis_counts(ny), axis_counts(nx)
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum((cz[:, None, None] * cy[:, None] * cx).ravel(), out=indptr[1:])
    cursor = indptr[:-1].reshape(nz, ny, nx).copy()
    rows = np.arange(n, dtype=index).reshape(nz, ny, nx)
    indices = np.empty(nnz, dtype=index)
    data = np.empty(nnz)
    for dz in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                box = tuple(slice(max(0, -d), m - max(0, d))
                            for d, m in ((dz, nz), (dy, ny), (dx, nx)))
                at = cursor[box]
                indices[at] = rows[box] + ((dz * ny + dy) * nx + dx)
                data[at] = 26.0 if dz == dy == dx == 0 else -1.0
                at += 1             # a view: advances the row cursors
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def stencil_rhs(A: sp.spmatrix, kind: str = "ones", seed: int = 0) -> np.ndarray:
    """A right-hand side consistent with a known solution.

    ``kind='ones'`` uses b = A @ 1 (so the exact solution is the all-ones
    vector); ``kind='random'`` uses a random unit solution.
    """
    n = A.shape[0]
    if kind == "ones":
        x_star = np.ones(n)
    elif kind == "random":
        rng = derive_rng(seed)
        x_star = rng.standard_normal(n)
        x_star /= np.linalg.norm(x_star)
    else:
        raise ValueError(f"unknown rhs kind {kind!r}")
    return A @ x_star
