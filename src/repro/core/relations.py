"""Block redundancy relations (Table 1 of the paper).

Three kinds of relations appear in Krylov solvers:

================================  ======================================
recover the left-hand side        recover the right-hand side (inverted)
================================  ======================================
``q_i = sum_j A_ij p_j``          ``A_ii p_i = q_i - sum_{j!=i} A_ij p_j``
``u_i = a v_i + b w_i``           ``w_i = (u_i - a v_i) / b``
``g_i = b_i - sum_j A_ij x_j``    ``A_ii x_i = b_i - g_i - sum_{j!=i} A_ij x_j``
================================  ======================================

Each relation object knows how to rebuild one lost page of either side,
given the surviving data.  They are deliberately independent of any
particular solver: CG, BiCGStab and GMRES all assemble their protection
out of these three shapes (Section 3.1).

All matrix work goes through :class:`PageBlockedMatrix` block kernels,
which dispatch to either a SciPy CSR backend or the SciPy-free
:class:`~repro.matrices.sparse.SparseOperator` row-slab fast path — a
page recovery therefore only ever touches the nonzeros of the affected
block row, never a dense ``n x n`` intermediate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.matrices.blocked import PageBlockedMatrix


@dataclass
class MatVecRelation:
    """Relation ``q = A p`` between two paged vectors.

    ``recover_lhs_page`` rebuilds a page of ``q`` by recomputing the
    block-row product; ``recover_rhs_page`` rebuilds a page of ``p`` by
    solving with the diagonal block (valid whenever ``A_ii`` is
    non-singular, in particular for SPD ``A``).
    """

    blocked: PageBlockedMatrix

    def recover_lhs_page(self, page: int, p: np.ndarray) -> np.ndarray:
        """``q_i = A_{i,:} p`` — needs the whole of ``p``."""
        return self.blocked.block_row_product(page, p)

    def recover_rhs_page(self, page: int, q: np.ndarray, p: np.ndarray) -> np.ndarray:
        """``A_ii p_i = q_i - sum_{j != i} A_ij p_j``.

        ``p`` is used only for its off-page entries; the contents of the
        lost page itself are ignored.
        """
        sl = self.blocked.block_slice(page)
        rhs = q[sl] - self.blocked.offdiag_product(page, p)
        return self.blocked.solve_diag(page, rhs)


@dataclass
class LinearCombinationRelation:
    """Relation ``u = alpha * v + beta * w`` between paged vectors.

    These are the cheapest relations: recovering either side of a page
    costs one scaled subtraction on 512 values.
    """

    alpha: float
    beta: float

    def recover_lhs_page(self, v_page: np.ndarray, w_page: np.ndarray) -> np.ndarray:
        """``u_i = alpha v_i + beta w_i``."""
        return self.alpha * v_page + self.beta * w_page

    def recover_w_page(self, u_page: np.ndarray, v_page: np.ndarray) -> np.ndarray:
        """``w_i = (u_i - alpha v_i) / beta``."""
        if self.beta == 0.0:
            raise ZeroDivisionError("cannot invert the relation when beta == 0")
        return (u_page - self.alpha * v_page) / self.beta


@dataclass
class ResidualRelation:
    """Relation ``g = b - A x`` (conserved by CG/BiCGStab across iterations).

    ``recover_residual_page`` rebuilds a page of ``g``;
    ``recover_iterate_page`` rebuilds a page of ``x`` by the inverted
    block relation — the same formula Chen used for checkpoint-free
    iterate recovery and the one our Theorem 3 analysis covers.
    """

    blocked: PageBlockedMatrix
    b: np.ndarray

    def recover_residual_page(self, page: int, x: np.ndarray) -> np.ndarray:
        """``g_i = b_i - A_{i,:} x`` — needs the whole of ``x``."""
        sl = self.blocked.block_slice(page)
        return self.b[sl] - self.blocked.block_row_product(page, x)

    def recover_iterate_page(self, page: int, g: np.ndarray,
                             x: np.ndarray) -> np.ndarray:
        """``A_ii x_i = b_i - g_i - sum_{j != i} A_ij x_j``."""
        sl = self.blocked.block_slice(page)
        rhs = self.b[sl] - g[sl] - self.blocked.offdiag_product(page, x)
        return self.blocked.solve_diag(page, rhs)

    def recover_iterate_pages_coupled(self, pages: Sequence[int], g: np.ndarray,
                                      x: np.ndarray) -> np.ndarray:
        """Coupled recovery of several lost ``x`` pages (Section 2.4, case 1).

        Solves the principal submatrix system over the union of the lost
        pages.  Returns the concatenated recovered values in page order.
        """
        pages = sorted(set(int(p) for p in pages))
        if not pages:
            raise ValueError("need at least one page")
        x_masked = np.array(x, copy=True)
        for page in pages:
            x_masked[self.blocked.block_slice(page)] = 0.0
        rhs_parts = []
        for page in pages:
            sl = self.blocked.block_slice(page)
            rhs_parts.append(self.b[sl] - g[sl]
                             - self.blocked.block_row_product(page, x_masked))
        rhs = np.concatenate(rhs_parts)
        return self.blocked.coupled_diag_solve(pages, rhs)


@dataclass
class HessenbergRelation:
    """GMRES Arnoldi-basis relation (Section 3.1.3).

    At step ``t`` of the Arnoldi process, every earlier basis vector
    satisfies ``v_l = (A v_{l-1} - sum_{k<l} h_{k,l-1} v_k) / h_{l,l-1}``,
    so any lost ``v_l`` (0 < l < t) is recoverable from the Hessenberg
    matrix and the other basis vectors.
    """

    blocked: Optional[PageBlockedMatrix] = None

    def recover_basis_vector(self, l: int, V: np.ndarray, H: np.ndarray,
                             A=None) -> np.ndarray:
        """Rebuild column ``l`` (>= 1) of the Arnoldi basis ``V``."""
        if l < 1:
            raise ValueError("only basis vectors with index >= 1 are recoverable "
                             "from the Hessenberg relation")
        if H[l, l - 1] == 0.0:
            raise ZeroDivisionError("h[l, l-1] is zero; Arnoldi broke down here")
        operator = self.blocked.A if self.blocked is not None else A
        if operator is None:
            raise ValueError("need the system matrix A (or a blocked view)")
        w = operator @ V[:, l - 1]
        for k in range(l):
            w = w - H[k, l - 1] * V[:, k]
        return w / H[l, l - 1]
