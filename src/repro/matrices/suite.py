"""Synthetic analogues of the paper's nine UFL test matrices.

The paper (Section 5.1) selects nine well-conditioned SPD matrices from
the University of Florida collection, one per family, among the biggest:
af_shell8, cfd2, consph, Dubcova3, ecology2, parabolic_fem, qa8fm,
thermal2 and thermomech (thermomech_dM).  The collection cannot be
bundled offline, so each entry here is a *synthetic analogue*: an SPD
matrix built from a structurally similar generator (FEM-like stiffness,
CFD pressure-like, 2-D/3-D Laplacian-like, shifted graph Laplacian),
scaled down to a few thousand rows so that the entire Figure 4 sweep
(9 matrices x 6 error rates x 5 methods x repetitions) runs in minutes.

What the reproduction needs from these matrices is the qualitative
spread the paper's discussion relies on: some problems converge in a few
dozen iterations (qa8fm-like), some in hundreds (thermal-like), they have
different nnz/row, and all are SPD so CG and the exact recovery relations
apply.  The :class:`MatrixInfo` records carry the original matrix's
published size/nnz, so each analogue states what it stands in for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np
import scipy.sparse as sp

from repro.faults.injector import derive_rng
from repro.matrices.laplacian import graph_laplacian, laplacian_2d, laplacian_3d


@dataclass(frozen=True)
class MatrixInfo:
    """Description of one suite entry."""

    name: str
    #: Rows of the synthetic analogue (page-aligned where possible).
    n: int
    #: Rows of the original UFL matrix (for documentation only).
    original_n: int
    #: Nonzeros of the original UFL matrix (for documentation only).
    original_nnz: int
    #: Short description of the original problem family.
    family: str
    #: Generator producing the analogue.
    generator: Callable[[], sp.csr_matrix]

    def build(self) -> sp.csr_matrix:
        """Materialise the analogue matrix (CSR, float64, SPD)."""
        A = self.generator().tocsr().astype(np.float64)
        if A.shape[0] != A.shape[1]:
            raise RuntimeError(f"generator for {self.name} returned a "
                               f"non-square matrix {A.shape}")
        return A


# ----------------------------------------------------------------------
# generators — each returns an SPD matrix of a few thousand rows
# ----------------------------------------------------------------------
def _af_shell8_like() -> sp.csr_matrix:
    """Shell/stiffness-like: 2-D Laplacian with strong anisotropy and a
    banded overlay giving several nonzero diagonals (af_shell8 has ~35
    nnz/row from shell finite elements)."""
    base = laplacian_2d(72, 72, anisotropy=4.0, shift=1e-3)
    n = base.shape[0]
    overlay = sp.diags([np.full(n - 72 * 2, -0.25)] * 2,
                       offsets=[144, -144], shape=(n, n))
    return (base + overlay + 0.5 * sp.eye(n)).tocsr()


def _cfd2_like() -> sp.csr_matrix:
    """CFD pressure-matrix-like: 3-D 7-point Laplacian with mild random
    symmetric perturbation of the couplings."""
    A = laplacian_3d(17, 17, 17)
    rng = derive_rng(1202)
    noise = sp.random(A.shape[0], A.shape[0], density=5e-4, random_state=rng,
                      data_rvs=lambda k: -0.1 * rng.random(k))
    noise = (noise + noise.T) * 0.5
    row_abs = np.asarray(abs(noise).sum(axis=1)).ravel()
    return (A + noise + sp.diags(row_abs + 1e-6)).tocsr()


def _consph_like() -> sp.csr_matrix:
    """Concentric-spheres FEM-like: 3-D Laplacian with heavier diagonal."""
    A = laplacian_3d(16, 16, 16, shift=0.05)
    return A.tocsr()


def _dubcova3_like() -> sp.csr_matrix:
    """PDE FEM-like (Dubcova): 2-D 5-point Poisson on a square grid."""
    return laplacian_2d(64, 64)


def _ecology2_like() -> sp.csr_matrix:
    """Circuit-theory landscape model: large sparse 2-D grid Laplacian
    with a small shift (ecology2 is a 5-point-like grid problem)."""
    return laplacian_2d(80, 52, anisotropy=1.0, shift=2e-2)


def _parabolic_fem_like() -> sp.csr_matrix:
    """Parabolic FEM (diffusion time step): Laplacian plus mass-like shift."""
    A = laplacian_2d(64, 64)
    return (0.01 * A + sp.eye(A.shape[0])).tocsr()


def _qa8fm_like() -> sp.csr_matrix:
    """Acoustics mass-matrix-like: strongly diagonally dominant, converges
    in a few dozen iterations (the paper notes qa8fm converges fastest)."""
    A = laplacian_3d(16, 16, 16)
    return (0.05 * A + sp.eye(A.shape[0])).tocsr()


def _thermal2_like() -> sp.csr_matrix:
    """Unstructured thermal problem: graph Laplacian on a randomised mesh
    with a tiny shift, giving slow CG convergence (thermal2 is the
    slowest-converging matrix in the paper's set)."""
    nx, ny = 96, 43
    grid = laplacian_2d(nx, ny, shift=0.0)
    rng = derive_rng(77)
    n = grid.shape[0]
    extra = sp.random(n, n, density=3e-4, random_state=rng,
                      data_rvs=lambda k: rng.random(k))
    W = extra + extra.T
    return (graph_laplacian(W, shift=0.0) + grid + 1e-4 * sp.eye(n)).tocsr()


def _thermomech_like() -> sp.csr_matrix:
    """Thermomechanical FEM-like: well conditioned, fast converging."""
    A = laplacian_3d(15, 15, 15, shift=0.5)
    return A.tocsr()


#: The nine matrices of the paper's single-node evaluation.
PAPER_MATRICES: Dict[str, MatrixInfo] = {
    "af_shell8": MatrixInfo("af_shell8", 72 * 72, 504855, 17579155,
                            "sheet metal forming, shell elements", _af_shell8_like),
    "cfd2": MatrixInfo("cfd2", 17 ** 3, 123440, 3085406,
                       "CFD pressure matrix", _cfd2_like),
    "consph": MatrixInfo("consph", 16 ** 3, 83334, 6010480,
                         "FEM concentric spheres", _consph_like),
    "Dubcova3": MatrixInfo("Dubcova3", 64 * 64, 146689, 3636643,
                           "2-D PDE finite elements", _dubcova3_like),
    "ecology2": MatrixInfo("ecology2", 80 * 52, 999999, 4995991,
                           "landscape circuit theory (5-point grid)", _ecology2_like),
    "parabolic_fem": MatrixInfo("parabolic_fem", 64 * 64, 525825, 3674625,
                                "parabolic FEM diffusion", _parabolic_fem_like),
    "qa8fm": MatrixInfo("qa8fm", 16 ** 3, 66127, 1660579,
                        "3-D acoustics mass matrix", _qa8fm_like),
    "thermal2": MatrixInfo("thermal2", 96 * 43, 1228045, 8580313,
                           "unstructured steady-state thermal", _thermal2_like),
    "thermomech": MatrixInfo("thermomech", 15 ** 3, 204316, 1423116,
                             "thermomechanical FEM (thermomech_dM)", _thermomech_like),
}
