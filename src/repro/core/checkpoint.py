"""Checkpoint/rollback recovery (Section 4.2).

Each processing element periodically writes the iterate ``x`` and the
search direction ``d`` — the minimum needed to roll back — to its local
disk.  On a DUE, all PEs restore the last checkpoint and the solver
recomputes the residual from the restored iterate.  Checkpoint frequency
is expressed in solver iterations; when errors are injected the
evaluation uses the optimal frequency derived from the classic
first-order model (Young / Daly, as in Bougeret et al. [5]).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.strategy import RecoveryOutcome, RecoveryStrategy


def optimal_checkpoint_interval(mtbe: float, checkpoint_cost: float,
                                iteration_time: float) -> int:
    """Optimal checkpoint period in iterations (Young's first-order formula).

    ``T_opt = sqrt(2 * C * MTBE)`` in seconds, converted to iterations and
    clamped to at least one iteration.  With no failures expected
    (``mtbe`` infinite) the period is effectively unbounded.
    """
    if checkpoint_cost < 0:
        raise ValueError("checkpoint cost cannot be negative")
    if iteration_time <= 0:
        raise ValueError("iteration time must be positive")
    if not math.isfinite(mtbe):
        return 10 ** 9
    if mtbe <= 0:
        raise ValueError("MTBE must be positive")
    seconds = math.sqrt(2.0 * max(checkpoint_cost, 1e-12) * mtbe)
    return max(1, int(round(seconds / iteration_time)))


class CheckpointStrategy(RecoveryStrategy):
    """Periodic checkpoint of (x, d) with global rollback on error."""

    name = "ckpt"
    uses_recovery_tasks = False
    recovery_in_critical_path = False

    def __init__(self, interval: Optional[int] = None):
        """``interval`` is in iterations; ``None`` means "choose optimally"
        once the solver knows the iteration time and MTBE."""
        if interval is not None and interval < 1:
            raise ValueError("checkpoint interval must be >= 1 iteration")
        self.interval = interval
        #: The last checkpoint written; replaced, never changed in place
        #: (a solve's prefix snapshot holds it).
        self.saved: Optional[Dict[str, np.ndarray]] = None

    # ------------------------------------------------------------------
    def configure_interval(self, mtbe: float, iteration_time: float,
                           write_time: float) -> int:
        """Pick the optimal interval for a given error rate (Section 5.4),
        given the simulated time of one checkpoint write."""
        self.interval = optimal_checkpoint_interval(mtbe, write_time,
                                                    iteration_time)
        return self.interval

    @staticmethod
    def checkpoint_bytes(n: float) -> float:
        """Bytes written per checkpoint: the iterate and the search direction."""
        return 2.0 * 8.0 * n

    def should_checkpoint(self, iteration: int) -> bool:
        """True on iterations where a checkpoint task must be added."""
        if self.interval is None:
            raise RuntimeError("checkpoint interval not configured")
        return iteration > 0 and iteration % self.interval == 0

    # ------------------------------------------------------------------
    def on_solve_start(self, state) -> None:
        # Take checkpoint zero so a very early error has something to
        # roll back to.
        self.save(state)

    def save(self, state) -> None:
        """Write a checkpoint (deep copies of x and the current d buffer)."""
        self.saved = {
            "x": np.array(state.vectors["x"].array, copy=True),
            "d": np.array(state.vectors[state.current_d_name].array, copy=True),
        }

    def handle_lost_pages(self, state, lost: List[Tuple[str, int]]
                          ) -> RecoveryOutcome:
        outcome = RecoveryOutcome()
        if not lost:
            return outcome
        if self.saved is None:
            raise RuntimeError("rollback requested before any checkpoint was taken")
        # Restore x and d from the checkpoint; g and q are recomputed by the
        # solver after the rollback (restart_required semantics).
        state.vectors["x"].fill_from(self.saved["x"])
        state.vectors[state.current_d_name].fill_from(self.saved["d"])
        outcome.rolled_back = True
        outcome.restart_required = True
        # The read is priced at the unscaled volume while the write is
        # priced at ``work_scale`` times it: the same data, read at
        # 1/work_scale of its written size.  Left as is because scaling it
        # moves every ckpt solve time (a store-schema change).
        outcome.work_time += state.config.cost_model.checkpoint_read(
            self.checkpoint_bytes(state.blocked.n))
        outcome.recovered.extend(lost)
        return outcome
