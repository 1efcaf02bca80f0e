"""Identity (no-op) preconditioner, used by the non-preconditioned CG."""

from __future__ import annotations

import numpy as np

from repro.precond.base import Preconditioner


class IdentityPreconditioner(Preconditioner):
    """``M = I``: preconditioning returns its input unchanged."""

    def apply(self, v: np.ndarray) -> np.ndarray:
        return np.array(v, dtype=np.float64, copy=True)
