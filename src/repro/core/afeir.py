"""Asynchronous Forward Exact Interpolation Recovery (AFEIR).

AFEIR repairs a page that is lost *in time* with exactly the same
algebraic recoveries as FEIR; the difference is in scheduling (Section
3.3.2 and Figure 2):

* recovery tasks are scheduled *concurrently* with the reduction
  (partial dot-product) tasks, at lower priority, instead of as barriers;
* consequently the fault-free overhead nearly vanishes (Table 2:
  0.23% vs 2.73%), but errors discovered *after* the recovery task has
  already run and *before* the following scalar task cannot be repaired
  in time — the affected page's contribution to that reduction is
  skipped, which slows convergence at high error rates (Section 5.4).

A page lost that late is not handed to this class at all: the resilient
solver defers it and repairs it at the end of the iteration with its own
per-page table (``ResilientCG._repair_deferred``), which orders and
couples pages differently from :meth:`FEIRStrategy.handle_lost_pages`.
The two windows — which check point, which scalar, which vectors — are
declared once, as :data:`repro.solvers.cg_plan.LATE_WINDOWS`, and read
both by the solver (to decide which DUEs are late) and by the planner
(to have the threaded backend measure the windows on real threads).
This class only sets the scheduling flags.
"""

from __future__ import annotations

from repro.core.feir import FEIRStrategy


class AFEIRStrategy(FEIRStrategy):
    """Exact forward recovery with recovery tasks overlapped (asynchronous)."""

    name = "AFEIR"
    uses_recovery_tasks = True
    recovery_in_critical_path = False
