"""Trivial forward recovery (Section 4.1).

"Simply keep the program running, by allocating new (blank) memory for
corrupt or lost data.  No other actions are taken."  Errors in data that
is never reused are masked; everything else silently degrades the
iterate and all convergence guarantees are lost — which is exactly the
behaviour Figure 4 shows (overheads above 200% already at a normalised
error frequency of 5).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.strategy import RecoveryOutcome, RecoveryStrategy


class TrivialStrategy(RecoveryStrategy):
    """Replace lost pages with zeros and keep iterating."""

    name = "Trivial"
    uses_recovery_tasks = False
    recovery_in_critical_path = False

    def handle_lost_pages(self, state, lost: List[Tuple[str, int]]
                          ) -> RecoveryOutcome:
        outcome = RecoveryOutcome()
        for vector, page in lost:
            # Detection already blanked the page (the OS re-mapped it);
            # Trivial keeps the blank.
            outcome.unrecoverable.append((vector, page))
        return outcome
