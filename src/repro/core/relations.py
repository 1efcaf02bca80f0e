"""Block redundancy relations (Table 1 of the paper).

Three kinds of relations appear in Krylov solvers:

================================  ======================================
recover the left-hand side        recover the right-hand side (inverted)
================================  ======================================
``q_i = sum_j A_ij p_j``          ``A_ii p_i = q_i - sum_{j!=i} A_ij p_j``
``u_i = a v_i + b w_i``           ``w_i = (u_i - a v_i) / b``
``g_i = b_i - sum_j A_ij x_j``    ``A_ii x_i = b_i - g_i - sum_{j!=i} A_ij x_j``
================================  ======================================

Each relation object rebuilds lost pages from the surviving data, for
the sides the resilient CG of this package recovers: both sides of the
first and third rows (FEIR, AFEIR's deferred repair and the Lossy
Restart all recover through them), and the left-hand side of the second,
for its search direction at point B.  The BiCGStab and GMRES relations
of Section 3.1 (Listings 3-4) run in no solver here;
``examples/krylov_recovery_relations.py`` applies these objects to
BiCGStab's ``s = g - alpha q``.

Every inverted row goes through one function, :func:`_solve_inverted`:
one lost page is a diagonal-block solve, several lost pages of one
vector are one coupled solve over the union of their blocks (Section
2.4, case 1).

All matrix work goes through :class:`PageBlockedMatrix` block kernels,
which dispatch to either a SciPy CSR backend or the SciPy-free
:class:`~repro.matrices.sparse.SparseOperator` row-slab fast path — a
page recovery therefore only ever touches the nonzeros of the affected
block row, never a dense ``n x n`` intermediate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.matrices.blocked import PageBlockedMatrix


def _solve_inverted(blocked: PageBlockedMatrix, pages: Sequence[int],
                    lhs: np.ndarray, v: np.ndarray) -> List[np.ndarray]:
    """Solve ``A_ii v_i = lhs_i - sum_{j not lost} A_ij v_j`` over the lost
    ``pages`` of ``v``; returns the recovered pages in ascending order.

    The lost pages are masked to zero first, so whatever they hold is
    ignored exactly.  One page is a solve with its diagonal block; several
    are one solve with the principal submatrix over their union, which
    also accounts for the coupling *between* the lost pages.
    """
    pages = sorted(set(int(p) for p in pages))
    if not pages:
        raise ValueError("need at least one page")
    masked = np.array(v, copy=True)
    slices = [blocked.block_slice(page) for page in pages]
    for sl in slices:
        masked[sl] = 0.0
    rhs = [lhs[sl] - blocked.block_row_product(page, masked)
           for page, sl in zip(pages, slices, strict=True)]
    if len(pages) == 1:
        return [blocked.solve_diag(pages[0], rhs[0])]
    values = blocked.coupled_diag_solve(pages, np.concatenate(rhs))
    bounds = np.cumsum([sl.stop - sl.start for sl in slices])[:-1]
    return np.split(values, bounds)


@dataclass
class MatVecRelation:
    """Relation ``q = A p`` between two paged vectors.

    ``recover_lhs_page`` rebuilds a page of ``q`` by recomputing the
    block-row product; ``recover_rhs_page(s)`` rebuilds pages of ``p`` by
    solving with the diagonal block(s) (valid whenever ``A_ii`` is
    non-singular, in particular for SPD ``A``).  The Lossy Restart's
    interpolation is this relation with ``q = b``.
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
        return _solve_inverted(self.blocked, [page], q, p)[0]

    def recover_rhs_pages(self, pages: Sequence[int], q: np.ndarray,
                          p: np.ndarray) -> List[np.ndarray]:
        """Coupled recovery of several lost pages of ``p``, in ascending
        page order (Section 2.4, case 1)."""
        return _solve_inverted(self.blocked, pages, q, p)


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
        return self.recover_iterate_pages([page], g, x)[0]

    def recover_iterate_pages(self, pages: Sequence[int], g: np.ndarray,
                              x: np.ndarray) -> List[np.ndarray]:
        """Coupled recovery of several lost ``x`` pages, in ascending page
        order (Section 2.4, case 1)."""
        return _solve_inverted(self.blocked, pages, self.b - g, x)
