"""Reference (non-resilient) CG and PCG.

These follow the paper's Listing 1 (Conjugate Gradient) and Listing 5
(its preconditioned version).  They are deliberately straightforward
NumPy/SciPy implementations, an independent oracle the tests check the
resilient solver's solutions and iteration counts against.  They are
not the "ideal" baseline of a campaign: that is ``solve_trial`` of a
fault-free :class:`~repro.solvers.resilient_cg.ResilientCG`
(``repro.campaign.engine._ideal_time``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from repro.analysis.convergence import ConvergenceRecord, ResidualHistory
from repro.config import DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE
from repro.precond.base import Preconditioner
from repro.precond.identity import IdentityPreconditioner


def _as_linear_operator(A):
    """Normalise the input matrix: SciPy CSR, or a SparseOperator as-is.

    The reference solvers only need ``A @ v``, which both backends
    provide; dense arrays are converted to CSR like before.
    """
    from repro.matrices.sparse import SparseOperator
    if isinstance(A, SparseOperator):
        return A
    return sp.csr_matrix(A)


@dataclass
class ReferenceResult:
    """Solution plus convergence record for a reference solve."""

    x: np.ndarray
    record: ConvergenceRecord

    @property
    def converged(self) -> bool:
        return self.record.converged

    @property
    def iterations(self) -> int:
        return self.record.iterations


def _relative_residual(A: sp.spmatrix, x: np.ndarray, b: np.ndarray,
                       b_norm: float) -> float:
    return float(np.linalg.norm(b - A @ x) / b_norm)


def conjugate_gradient(A: sp.spmatrix, b: np.ndarray,
                       x0: Optional[np.ndarray] = None, *,
                       tol: float = DEFAULT_TOLERANCE,
                       max_iterations: int = DEFAULT_MAX_ITERATIONS,
                       callback: Optional[Callable[[int, float], None]] = None
                       ) -> ReferenceResult:
    """Plain CG (Listing 1): requires ``A`` symmetric positive definite."""
    return preconditioned_conjugate_gradient(
        A, b, x0, preconditioner=IdentityPreconditioner(), tol=tol,
        max_iterations=max_iterations, callback=callback,
        method_name="CG (reference)")


def preconditioned_conjugate_gradient(
        A: sp.spmatrix, b: np.ndarray, x0: Optional[np.ndarray] = None, *,
        preconditioner: Optional[Preconditioner] = None,
        tol: float = DEFAULT_TOLERANCE,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        callback: Optional[Callable[[int, float], None]] = None,
        method_name: str = "PCG (reference)") -> ReferenceResult:
    """Preconditioned CG (Listing 5).

    Convergence is declared on the true relative residual
    ``||b - Ax|| / ||b|| <= tol`` to match the paper's threshold of 1e-10.
    """
    A = _as_linear_operator(A)
    n = A.shape[0]
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != n:
        raise ValueError(f"b has length {b.shape[0]}, expected {n}")
    M = preconditioner if preconditioner is not None else IdentityPreconditioner()
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64, copy=True)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        record = ConvergenceRecord(converged=True, iterations=0, solve_time=0.0,
                                   final_residual=0.0, method=method_name)
        return ReferenceResult(x=np.zeros(n), record=record)

    history = ResidualHistory()
    g = b - A @ x
    z = M.apply(g)
    d = z.copy()
    rho = float(g @ z)
    rel = float(np.linalg.norm(g) / b_norm)
    history.append(0, 0.0, rel)

    converged = rel <= tol
    iteration = 0
    while not converged and iteration < max_iterations:
        iteration += 1
        q = A @ d
        dq = float(d @ q)
        if dq <= 0:
            # Not SPD (or breakdown): report failure honestly.
            break
        alpha = rho / dq
        x += alpha * d
        g -= alpha * q
        rel = float(np.linalg.norm(g) / b_norm)
        history.append(iteration, float(iteration), rel)
        if callback is not None:
            callback(iteration, rel)
        if rel <= tol:
            converged = True
            break
        z = M.apply(g)
        rho_new = float(g @ z)
        beta = rho_new / rho
        rho = rho_new
        d = z + beta * d

    record = ConvergenceRecord(
        converged=converged, iterations=iteration, solve_time=float(iteration),
        final_residual=_relative_residual(A, x, b, b_norm), history=history,
        method=method_name)
    return ReferenceResult(x=x, record=record)
