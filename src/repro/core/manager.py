"""Strategy factory and registry."""

from __future__ import annotations

from typing import Optional

from repro.core.afeir import AFEIRStrategy
from repro.core.checkpoint import CheckpointStrategy
from repro.core.feir import FEIRStrategy
from repro.core.lossy import LossyRestartStrategy
from repro.core.strategy import RecoveryStrategy
from repro.core.trivial import TrivialStrategy

#: Canonical method names, in the order the paper's figures list them.
STRATEGY_NAMES = ("AFEIR", "FEIR", "Lossy", "ckpt", "Trivial")


def make_strategy(name: str, *,
                  checkpoint_interval: Optional[int] = None) -> RecoveryStrategy:
    """Build a recovery strategy by its paper name (case-insensitive).

    ``checkpoint_interval`` only applies to the checkpointing method; when
    omitted the solver configures the optimal interval from the error
    rate (Section 5.4).  A strategy holds no prices: it charges its work
    with the solve's ``SolverConfig.cost_model``.
    """
    key = name.strip().lower()
    if key == "feir":
        return FEIRStrategy()
    if key == "afeir":
        return AFEIRStrategy()
    if key in ("lossy", "lossy restart", "lossy-restart"):
        return LossyRestartStrategy()
    if key in ("ckpt", "checkpoint", "checkpointing", "checkpoint-rollback"):
        return CheckpointStrategy(interval=checkpoint_interval)
    if key == "trivial":
        return TrivialStrategy()
    raise ValueError(f"unknown recovery strategy {name!r}; "
                     f"known strategies: {', '.join(STRATEGY_NAMES)}")
