"""The Lossy Restart (Section 4.3), adapted from Langou et al.'s Lossy Approach.

When part of the iterate ``x`` is lost, a block-Jacobi step interpolates
a replacement from the constant data and the surviving parts of ``x``:

    ``A_ii x_i = b_i - sum_{j != i} A_ij x_j``

(this is the iterate relation of Table 1 *with the residual discarded*).
After the interpolation the residual is outdated, so the Krylov method
must restart from the interpolated iterate.  Losses in any other dynamic
vector are handled by restarting with the intact iterate.

:func:`lossy_interpolate` is the interpolation operator the theorems of
Section 4.3 are about, so the property-based tests can check it:

* Theorem 1/2: the interpolation does not increase ``||e||_A`` (SPD case);
* Theorem 3: it *minimises* ``||e||_A`` over all possible values of the
  lost block — the paper's new contribution.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.relations import MatVecRelation
from repro.core.strategy import RecoveryOutcome, RecoveryStrategy
from repro.matrices.blocked import PageBlockedMatrix


# ----------------------------------------------------------------------
# the interpolation (used by the strategy and by the theorem tests)
# ----------------------------------------------------------------------
def lossy_interpolate(blocked: PageBlockedMatrix, b: np.ndarray, x: np.ndarray,
                      pages: Sequence[int]) -> np.ndarray:
    """Block-Jacobi interpolation of the lost ``pages`` of the iterate.

    Returns a new iterate equal to ``x`` outside the lost pages and to
    ``A_ii^{-1} (b_i - sum_{j != i} A_ij x_j)`` on each lost page: the
    inverted ``b = A x`` relation, solved one page at a time with every
    lost page read as zero.  The contents of ``x`` on the lost pages are
    ignored (they are gone).
    """
    pages = sorted(set(int(p) for p in pages))
    x_new = np.array(x, copy=True)
    # Zero the lost pages first so their (meaningless) contents do not
    # leak into the off-diagonal products of *other* lost pages.
    for page in pages:
        x_new[blocked.block_slice(page)] = 0.0
    relation = MatVecRelation(blocked)
    interpolated = [relation.recover_rhs_page(page, b, x_new)
                    for page in pages]
    for page, values in zip(pages, interpolated, strict=True):
        x_new[blocked.block_slice(page)] = values
    return x_new



# ----------------------------------------------------------------------
# strategy
# ----------------------------------------------------------------------
class LossyRestartStrategy(RecoveryStrategy):
    """Lossy Restart: block-Jacobi interpolation of ``x`` plus a restart.

    The restart itself (recomputing ``g = b - A x`` and resetting the
    search direction) is performed by the solver when the outcome's
    ``restart_required`` flag is set; the strategy only fixes the iterate.
    """

    name = "Lossy"
    uses_recovery_tasks = False
    recovery_in_critical_path = False

    def handle_lost_pages(self, state, lost: List[Tuple[str, int]],
                          iteration: int) -> RecoveryOutcome:
        outcome = RecoveryOutcome()
        if not lost:
            return outcome
        x_pages = sorted({page for vector, page in lost if vector == "x"})
        other = [(vector, page) for vector, page in lost if vector != "x"]

        if x_pages:
            blocked, cm = state.blocked, state.config.cost_model
            x_vec = state.vectors["x"]
            interpolated = lossy_interpolate(blocked, state.b,
                                             x_vec.array, x_pages)
            x_vec.fill_from(interpolated)
            for page in x_pages:
                state.memory.mark_recovered("x", page)
                outcome.recovered.append(("x", page))
                outcome.work_time += cm.block_solve(
                    blocked.block_size(page),
                    factorized=blocked.has_cached_factor(page))
                outcome.work_time += cm.spmv_block(blocked.nnz_of_block(page))

        # Non-iterate losses: the data will be rebuilt by the restart
        # (g recomputed, d reset to the new residual, q recomputed), so the
        # pages are simply blanked here.
        for vector, page in other:
            state.vectors[vector].zero_page(page)
            state.memory.mark_recovered(vector, page)
            outcome.recovered.append((vector, page))

        outcome.restart_required = True
        return outcome
