"""Asynchronous Forward Exact Interpolation Recovery (AFEIR).

AFEIR uses exactly the same algebraic recoveries as FEIR; the difference
is purely in scheduling (Section 3.3.2 and Figure 2):

* recovery tasks are scheduled *concurrently* with the reduction
  (partial dot-product) tasks, at lower priority, instead of as barriers;
* consequently the fault-free overhead nearly vanishes (Table 2:
  0.23% vs 2.73%), but errors discovered *after* the recovery task has
  already run and *before* the following scalar task cannot be repaired
  in time — the affected page's contribution to that reduction is
  skipped, which slows convergence at high error rates (Section 5.4).

The class overrides the scheduling flags (the algebra is inherited from
FEIR unchanged) and names the (recovery task, scalar task) role pairs whose
gap *is* the vulnerable window, so the threaded execution backend can
measure that window on real threads and the monitor can attribute every
late DUE to it.  The window's *enforcement* — skipping the lost page's
reduction contribution — still lives in the resilient solver, which asks
the strategy whether a fault detected at a given simulated time is
covered.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.feir import FEIRStrategy


class AFEIRStrategy(FEIRStrategy):
    """Exact forward recovery with recovery tasks overlapped (asynchronous)."""

    name = "AFEIR"
    uses_recovery_tasks = True
    recovery_in_critical_path = False

    def vulnerable_pairs(self) -> List[Tuple[str, str]]:
        """The two overlapped windows of one iteration (Figure 2):
        ``r2`` may finish before the rho/beta scalar consumes the
        reduction it guards, and ``r1`` before the alpha scalar."""
        return [("r2", "beta"), ("r1", "alpha")]
