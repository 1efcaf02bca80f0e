"""Forward Exact Interpolation Recovery (FEIR), recovery in the critical path.

FEIR repairs every lost page *exactly* using the Table 1 relations valid
for CG (Listing 1 annotations):

=========  ==============================================  =============
vector     relation used                                   needs intact
=========  ==============================================  =============
``g``      ``g_i = b_i - A_{i,:} x``                        ``x``
``q``      ``q_i = A_{i,:} d``                              ``d`` (current)
``d``      ``A_ii d_i = q_i - sum_{j!=i} A_ij d_j``         ``q``, other ``d``
``x``      ``A_ii x_i = b_i - g_i - sum_{j!=i} A_ij x_j``   ``g``, other ``x``
=========  ==============================================  =============

Recovery order matters when several pages are lost at once: the iterate
``x`` is repaired first (it only needs its own page of ``g``), then the
residual ``g`` (which needs the whole of ``x``), then the search
direction ``d`` and finally ``q`` — so every relation sees fully
repaired inputs and the recovered data is exact.

Pages lost on *both* sides of a relation at the same index
("simultaneous errors on related data", Section 2.4 case 2) cannot be
recovered exactly.  The evaluation setup of the paper uses no fallback
("simultaneous errors on related data are simply ignored"), which in the
implementation means the right-hand-side page stays blank and the
left-hand-side vector is re-derived from it by the next recovery tasks.
We reproduce that end state directly: the ``x`` (or ``d``) page is
blanked and the dependent vector ``g`` (or ``q``) is recomputed in full,
so the solver's invariants (``g = b - Ax``, ``q = A d``) are preserved
and only the information in the blanked page is lost.

The FEIR variant places its recovery tasks in the critical path: all
compute tasks of the iteration finish before recovery runs, and the
scalar (reduction) tasks wait for recovery.  This maximises coverage at
the price of load imbalance (Table 3).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.strategy import RecoveryOutcome, RecoveryStrategy
from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL


class FEIRStrategy(RecoveryStrategy):
    """Exact forward recovery with recovery tasks in the critical path.

    FEIR's recovery is a barrier before each scalar, so it keeps the
    base class's empty ``vulnerable_pairs`` — there is no window in
    which a DUE can land "after recovery ran", and the threaded backend
    records no windows for it.
    """

    name = "FEIR"
    uses_recovery_tasks = True
    recovery_in_critical_path = True

    def __init__(self, cost_model: CostModel = DEFAULT_COST_MODEL):
        self.cost_model = cost_model
        #: Timing scale of full-vector recomputations (set by the solver so
        #: conflict fallbacks are charged at the simulated problem scale).
        self.work_scale = 1.0

    # ------------------------------------------------------------------
    def handle_lost_pages(self, state, lost: List[Tuple[str, int]],
                          iteration: int) -> RecoveryOutcome:
        outcome = RecoveryOutcome()
        if not lost:
            return outcome
        by_vector: Dict[str, List[int]] = {}
        for vector, page in lost:
            by_vector.setdefault(vector, []).append(page)
        for vector in by_vector:
            by_vector[vector] = sorted(set(by_vector[vector]))

        d_name = state.current_d_name
        xg_conflict = sorted(set(by_vector.get("x", ()))
                             & set(by_vector.get("g", ())))
        dq_conflict = sorted(set(by_vector.get(d_name, ()))
                             & set(by_vector.get("q", ())))

        # 1) iterate pages that are exactly recoverable (their g page is intact)
        x_pages = [p for p in by_vector.pop("x", []) if p not in xg_conflict]
        if x_pages:
            outcome.work_time += self._recover_vector_pages(state, "x",
                                                            x_pages, outcome)
        # 2) x&g conflicts: blank the iterate page, then re-derive the whole
        #    residual from the blanked iterate so g = b - Ax keeps holding.
        g_pages = [p for p in by_vector.pop("g", []) if p not in xg_conflict]
        if xg_conflict:
            outcome.work_time += self._conflict_fallback(
                state, "x", "g", xg_conflict, g_pages, outcome)
        elif g_pages:
            outcome.work_time += self._recover_vector_pages(state, "g",
                                                            g_pages, outcome)
        # 3) search-direction pages recoverable from q
        d_pages = [p for p in by_vector.pop(d_name, []) if p not in dq_conflict]
        if d_pages:
            outcome.work_time += self._recover_vector_pages(state, d_name,
                                                            d_pages, outcome)
        # 4) d&q conflicts: blank the direction page, recompute q = A d.
        q_pages = [p for p in by_vector.pop("q", []) if p not in dq_conflict]
        if dq_conflict:
            outcome.work_time += self._conflict_fallback(
                state, d_name, "q", dq_conflict, q_pages, outcome)
        elif q_pages:
            outcome.work_time += self._recover_vector_pages(state, "q",
                                                            q_pages, outcome)
        # Anything left (e.g. the stale double-buffer copy of d) is about to
        # be overwritten; blanking it is exact for the algorithm's purposes.
        for vector, pages in by_vector.items():
            for page in pages:
                state.vectors[vector].zero_page(page)
                state.memory.mark_recovered(vector, page)
                outcome.recovered.append((vector, page))
                outcome.work_time += self.cost_model.recovery_check()
        return outcome

    # ------------------------------------------------------------------
    # conflicts: both sides of a relation lost at the same block index
    # ------------------------------------------------------------------
    def _conflict_fallback(self, state, rhs_name: str, lhs_name: str,
                           conflict_pages: List[int], lhs_pages: List[int],
                           outcome: RecoveryOutcome) -> float:
        """Blank the rhs pages, then rebuild the whole lhs vector from the rhs.

        Used for simultaneous x&g (lhs ``g = b - Ax``) and d&q (lhs
        ``q = A d``) losses.  Information in the blanked rhs pages is lost,
        but the solver's invariants are restored, and a restart of the
        Krylov recurrence is requested — the fallback Section 2.4 (case 2)
        describes — so convergence degrades instead of stalling.
        """
        rhs_vec = state.vectors[rhs_name]
        for page in conflict_pages:
            rhs_vec.zero_page(page)
            state.memory.mark_recovered(rhs_name, page)
            outcome.unrecoverable.append((rhs_name, page))
        lhs_vec = state.vectors[lhs_name]
        if lhs_name == "g":
            lhs_vec.fill_from(state.b - state.blocked.matvec(rhs_vec.array))
        else:
            lhs_vec.fill_from(state.blocked.matvec(rhs_vec.array))
        for page in set(lhs_pages) | set(conflict_pages):
            state.memory.mark_recovered(lhs_name, page)
            outcome.recovered.append((lhs_name, page))
        outcome.restart_required = True
        return self._full_spmv_time(state)

    def _full_spmv_time(self, state) -> float:
        """Simulated cost of recomputing a full residual / mat-vec product."""
        nnz = state.blocked.A.nnz
        n = state.blocked.n
        return self.cost_model.kernel_time(2.0 * nnz, 12.0 * nnz + 8.0 * n) \
            * self.work_scale

    # ------------------------------------------------------------------
    # exact per-page recoveries
    # ------------------------------------------------------------------
    def _recover_vector_pages(self, state, vector: str, pages: Sequence[int],
                              outcome: RecoveryOutcome) -> float:
        """Repair ``pages`` of ``vector`` exactly; returns simulated work time."""
        blocked = state.blocked
        vectors = state.vectors
        d_name = state.current_d_name
        time_spent = 0.0

        if vector == "g":
            for page in pages:
                values = state.residual_relation.recover_residual_page(
                    page, vectors["x"].array)
                vectors["g"].set_page(page, values)
                state.memory.mark_recovered("g", page)
                outcome.recovered.append(("g", page))
                time_spent += self.cost_model.spmv_block(blocked.nnz_of_block(page))
        elif vector == "q":
            for page in pages:
                values = state.matvec_relation.recover_lhs_page(
                    page, vectors[d_name].array)
                vectors["q"].set_page(page, values)
                state.memory.mark_recovered("q", page)
                outcome.recovered.append(("q", page))
                time_spent += self.cost_model.spmv_block(blocked.nnz_of_block(page))
        elif vector == "x":
            time_spent += self._recover_inverted(
                state, "x", pages, outcome,
                solver=lambda pgs: self._solve_x_pages(state, pgs))
        elif vector == d_name:
            time_spent += self._recover_inverted(
                state, d_name, pages, outcome,
                solver=lambda pgs: self._solve_d_pages(state, d_name, pgs))
        else:
            for page in pages:
                vectors[vector].zero_page(page)
                state.memory.mark_recovered(vector, page)
                outcome.recovered.append((vector, page))
                time_spent += self.cost_model.recovery_check()
        return time_spent

    def _recover_inverted(self, state, vector: str, pages: Sequence[int],
                          outcome: RecoveryOutcome, solver) -> float:
        """Common path for the inverted (diag-block solve) relations."""
        time_spent = 0.0
        pages = sorted(set(int(p) for p in pages))
        factored_already = all(state.blocked.has_cached_factor(p) for p in pages)
        solver(pages)
        for page in pages:
            state.memory.mark_recovered(vector, page)
            outcome.recovered.append((vector, page))
            time_spent += self.cost_model.block_solve(
                state.blocked.block_size(page), factorized=factored_already)
            time_spent += self.cost_model.spmv_block(state.blocked.nnz_of_block(page))
        return time_spent

    def _solve_x_pages(self, state, pages: Sequence[int]) -> None:
        x = state.vectors["x"]
        g = state.vectors["g"]
        if len(pages) == 1:
            for page in pages:
                values = state.residual_relation.recover_iterate_page(
                    page, g.array, x.array)
                x.set_page(page, values)
        else:
            values = state.residual_relation.recover_iterate_pages_coupled(
                pages, g.array, x.array)
            offset = 0
            for page in sorted(pages):
                width = state.blocked.block_size(page)
                x.set_page(page, values[offset:offset + width])
                offset += width

    def _solve_d_pages(self, state, d_name: str, pages: Sequence[int]) -> None:
        d = state.vectors[d_name]
        q = state.vectors["q"]
        from repro.core.interpolation import (coupled_block_interpolation,
                                              scatter_coupled_solution)
        if len(pages) == 1:
            for page in pages:
                values = state.matvec_relation.recover_rhs_page(
                    page, q.array, d.array)
                d.set_page(page, values)
        else:
            values = coupled_block_interpolation(state.blocked, pages,
                                                 q.array, d.array)
            scatter_coupled_solution(state.blocked, pages, values, d.array)
