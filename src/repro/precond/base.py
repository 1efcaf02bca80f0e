"""Preconditioner interface."""

from __future__ import annotations

import abc

import numpy as np


class Preconditioner(abc.ABC):
    """Solves ``M z = v`` (the generic preconditioning operation of §3.2).

    The resilient PCG applies ``M`` to the whole residual once per
    iteration; ``z`` is not a protected vector (it is recomputed from
    ``g`` every iteration), so no recovery path ever re-applies ``M`` to
    part of a vector.
    """

    @abc.abstractmethod
    def apply(self, v: np.ndarray) -> np.ndarray:
        """Return ``z`` with ``M z = v``."""
