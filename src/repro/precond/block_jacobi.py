"""Block-Jacobi preconditioner with page-aligned blocks.

The paper's preconditioned CG uses diagonal blocks of 512 x 512 elements
so that the block size coincides with the memory page size; then the
factorisation of diagonal blocks needed by the exact recovery
interpolation is already available from the preconditioner (Section 5.1).
Here the factors are not shared: this class factorises its own
:class:`PageBlockedMatrix` up front, and the solver's recovery factorises
(and caches) the blocks it recovers.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.config import PAGE_DOUBLES
from repro.matrices.blocked import PageBlockedMatrix
from repro.precond.base import Preconditioner


class BlockJacobiPreconditioner(Preconditioner):
    """``M = blockdiag(A_00, ..., A_kk)`` with page-sized blocks."""

    def __init__(self, A: sp.spmatrix, page_size: int = PAGE_DOUBLES):
        self.blocked = PageBlockedMatrix(A, page_size=page_size)
        # Factorise everything up front: the paper counts this as constant
        # (setup) data, reloadable from a reliable store.
        self.blocked.precompute_factors()

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape[0] != self.blocked.n:
            raise ValueError(f"vector length {v.shape[0]} does not match "
                             f"matrix order {self.blocked.n}")
        out = np.empty_like(v)
        for block in range(self.blocked.num_blocks):
            sl = self.blocked.block_slice(block)
            out[sl] = self.blocked.solve_diag(block, v[sl])
        return out
