"""Random sparse SPD matrices: non-stencil sparsity for the tests."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.config import DEFAULT_SEED
from repro.faults.injector import derive_rng


def random_sparse_spd(n: int, density: float = 0.01, *,
                      condition_boost: float = 1.0,
                      seed: int = DEFAULT_SEED) -> sp.csr_matrix:
    """A random sparse SPD matrix of order ``n``.

    Construction: sample a sparse matrix ``B``, symmetrise it, and add a
    diagonal that makes the result strictly diagonally dominant (hence
    SPD).  ``condition_boost`` < 1 shrinks the dominance margin and makes
    the matrix worse conditioned (more CG iterations), > 1 the opposite.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    if condition_boost <= 0:
        raise ValueError("condition_boost must be positive")
    rng = derive_rng(seed)
    nnz = max(n, int(density * n * n))
    rows = rng.integers(0, n, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    vals = rng.standard_normal(nnz)
    B = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    S = (B + B.T) * 0.5
    S.setdiag(0.0)
    S.eliminate_zeros()
    row_abs = np.asarray(abs(S).sum(axis=1)).ravel()
    diag = row_abs * (1.0 + 0.1 * condition_boost) + 1e-3 * condition_boost
    A = S + sp.diags(diag)
    return A.tocsr()
