"""Finite-difference stencil operators.

The 27-point stencil is the operator used by the paper's scaling study
(Section 5.5) and by the HPCG benchmark: every interior grid point
couples to all 26 neighbours of its 3x3x3 neighbourhood with weight -1
and to itself with weight 26, yielding a symmetric positive definite
matrix (a compact discretisation of -Laplace).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.faults.injector import derive_rng


def _grid_index(nx: int, ny: int, nz: int):
    """Linear index array for an ``nx*ny*nz`` grid (x fastest)."""
    return np.arange(nx * ny * nz).reshape(nz, ny, nx)


def poisson_3d_27pt(nx: int, ny: int = None, nz: int = None) -> sp.csr_matrix:
    """27-point stencil operator on an ``nx x ny x nz`` grid (HPCG style).

    Diagonal is 26, every neighbour in the 3x3x3 box contributes -1.
    Boundary points simply have fewer neighbours (matrix stays SPD,
    strictly diagonally dominant).
    """
    ny = nx if ny is None else ny
    nz = nx if nz is None else nz
    if min(nx, ny, nz) < 1:
        raise ValueError("grid dimensions must be >= 1")
    idx = _grid_index(nx, ny, nz)
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
