"""Structural and spectral property checks for test matrices."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def is_symmetric(A: sp.spmatrix, tol: float = 1e-12) -> bool:
    """True if ``A`` equals its transpose up to ``tol`` (relative)."""
    A = sp.csr_matrix(A)
    diff = (A - A.T).tocsr()
    if diff.nnz == 0:
        return True
    scale = max(abs(A).max(), 1.0)
    return bool(abs(diff).max() <= tol * scale)


def is_spd(A: sp.spmatrix, tol: float = 1e-10) -> bool:
    """True if ``A`` is symmetric positive definite.

    Uses a sparse Cholesky-free test: symmetry plus positivity of the
    smallest eigenvalue estimated with shift-invert Lanczos (falls back
    to a dense eigenvalue check for small matrices).
    """
    if not is_symmetric(A, tol=1e-9):
        return False
    return smallest_eigenvalue(A) > tol


def smallest_eigenvalue(A: sp.spmatrix) -> float:
    """Smallest eigenvalue of a symmetric sparse matrix."""
    A = sp.csr_matrix(A)
    n = A.shape[0]
    if n <= 600:
        return float(np.linalg.eigvalsh(A.toarray()).min())
    try:
        val = spla.eigsh(A, k=1, which="SA", maxiter=5000,
                         return_eigenvectors=False, tol=1e-6)
        return float(val[0])
    except Exception:
        # Lanczos can fail to converge on tough spectra; fall back to a
        # Gershgorin lower bound, which is conservative but safe.
        diag = A.diagonal()
        off = np.asarray(abs(A).sum(axis=1)).ravel() - np.abs(diag)
        return float(np.min(diag - off))
