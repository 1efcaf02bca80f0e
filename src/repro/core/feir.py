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

from typing import Callable, Dict, List, Set, Tuple

from repro.core.strategy import RecoveryOutcome, RecoveryStrategy


class FEIRStrategy(RecoveryStrategy):
    """Exact forward recovery with recovery tasks in the critical path.

    FEIR's recovery is a barrier before each scalar, so it has no
    vulnerable window: no DUE can land "after recovery ran" and before
    the scalar that reads the page (AFEIR's windows are
    :data:`repro.solvers.cg_plan.LATE_WINDOWS`).
    """

    name = "FEIR"
    uses_recovery_tasks = True
    recovery_in_critical_path = True

    # ------------------------------------------------------------------
    def handle_lost_pages(self, state, lost: List[Tuple[str, int]],
                          iteration: int) -> RecoveryOutcome:
        outcome = RecoveryOutcome()
        if not lost:
            return outcome
        by_vector: Dict[str, Set[int]] = {}
        for vector, page in lost:
            by_vector.setdefault(vector, set()).add(page)

        residual, matvec = state.residual_relation, state.matvec_relation
        # One pass per relation, g = b - Ax first: the inverted side
        # (x, d) needs only its own pages of the product side (g, q), and
        # the product side is then rebuilt from the whole repaired vector.
        for rhs, lhs, solve, product in (
                ("x", "g", residual.recover_iterate_pages,
                 residual.recover_residual_page),
                (state.current_d_name, "q", matvec.recover_rhs_pages,
                 matvec.recover_lhs_page)):
            rhs_lost = by_vector.pop(rhs, set())
            lhs_lost = by_vector.pop(lhs, set())
            conflict = sorted(rhs_lost & lhs_lost)
            rhs_pages = sorted(rhs_lost.difference(conflict))
            lhs_pages = sorted(lhs_lost.difference(conflict))
            if rhs_pages:
                outcome.work_time += self._solve_pages(
                    state, rhs, rhs_pages, solve, lhs, outcome)
            # Both sides lost at one index: blank the rhs page, then
            # re-derive the whole lhs vector so the relation keeps holding.
            if conflict:
                outcome.work_time += self._conflict_fallback(
                    state, rhs, lhs, conflict, lhs_pages, outcome)
            elif lhs_pages:
                outcome.work_time += self._product_pages(
                    state, lhs, lhs_pages, product, rhs, outcome)
        # Anything left (e.g. the stale double-buffer copy of d) is about to
        # be overwritten; blanking it is exact for the algorithm's purposes.
        for vector, pages in by_vector.items():
            for page in sorted(pages):
                state.vectors[vector].zero_page(page)
                state.memory.mark_recovered(vector, page)
                outcome.recovered.append((vector, page))
                outcome.work_time += state.config.cost_model.recovery_check()
        return outcome

    # ------------------------------------------------------------------
    # exact recoveries, one relation side at a time
    # ------------------------------------------------------------------
    def _solve_pages(self, state, vector: str, pages: List[int],
                     solve: Callable, lhs: str,
                     outcome: RecoveryOutcome) -> float:
        """Rebuild ``pages`` of ``vector`` with one inverted-relation solve
        from ``lhs``; returns the simulated work time."""
        blocked, cm = state.blocked, state.config.cost_model
        factored_already = all(blocked.has_cached_factor(p) for p in pages)
        target = state.vectors[vector]
        for page, values in zip(pages, solve(pages, state.vectors[lhs].array,
                                             target.array), strict=True):
            target.set_page(page, values)
        time_spent = 0.0
        for page in pages:
            state.memory.mark_recovered(vector, page)
            outcome.recovered.append((vector, page))
            time_spent += cm.block_solve(blocked.block_size(page),
                                         factorized=factored_already)
            time_spent += cm.spmv_block(blocked.nnz_of_block(page))
        return time_spent

    def _product_pages(self, state, vector: str, pages: List[int],
                       product: Callable, rhs: str,
                       outcome: RecoveryOutcome) -> float:
        """Rebuild ``pages`` of ``vector`` by a block-row product with the
        (repaired) ``rhs``; returns the simulated work time."""
        time_spent = 0.0
        cm = state.config.cost_model
        source = state.vectors[rhs].array
        for page in pages:
            state.vectors[vector].set_page(page, product(page, source))
            state.memory.mark_recovered(vector, page)
            outcome.recovered.append((vector, page))
            time_spent += cm.spmv_block(state.blocked.nnz_of_block(page))
        return time_spent

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
        # A full-vector recomputation, charged at the simulated problem
        # scale like the solver's own compute tasks.
        blocked, config = state.blocked, state.config
        return config.cost_model.spmv(blocked.A.nnz, blocked.n) \
            * config.work_scale
