#!/usr/bin/env python
"""Using the Table 1 relations directly on CG, BiCGStab and GMRES data.

The recovery relations are solver-agnostic: this example builds the
dynamic vectors of each Krylov method, destroys one memory page of each,
and restores it exactly from the surviving data, demonstrating the
protection scheme of Section 3.1 without running the full resilient
solver machinery.

Run with::

    python examples/krylov_recovery_relations.py
"""

from __future__ import annotations

import numpy as np

from repro.core.relations import (HessenbergRelation, LinearCombinationRelation,
                                  MatVecRelation, ResidualRelation)
from repro.matrices.blocked import PageBlockedMatrix
from repro.matrices.laplacian import laplacian_2d
from repro.matrices.stencil import stencil_rhs


def report(label: str, recovered: np.ndarray, original: np.ndarray) -> None:
    error = np.linalg.norm(recovered - original) / max(np.linalg.norm(original),
                                                       1e-300)
    print(f"  {label:<38s} relative recovery error = {error:.2e}")


def main() -> None:
    A = laplacian_2d(48)                       # n = 2304
    blocked = PageBlockedMatrix(A, page_size=256)
    rng = np.random.default_rng(0)
    b = stencil_rhs(A, kind="random", seed=1)
    page = 4
    sl = blocked.block_slice(page)

    print("CG relations (Listing 1)")
    x = rng.standard_normal(A.shape[0])
    g = b - A @ x
    d = rng.standard_normal(A.shape[0])
    q = A @ d
    residual_rel = ResidualRelation(blocked, b)
    matvec_rel = MatVecRelation(blocked)
    report("g_i = b_i - A_{i,:} x", residual_rel.recover_residual_page(page, x),
           g[sl])
    report("A_ii x_i = b_i - g_i - sum A_ij x_j",
           residual_rel.recover_iterate_page(page, g, np.where(
               np.arange(A.shape[0]) // 256 == page, 0.0, x)), x[sl])
    report("q_i = A_{i,:} d", matvec_rel.recover_lhs_page(page, d), q[sl])
    report("A_ii d_i = q_i - sum A_ij d_j",
           matvec_rel.recover_rhs_page(page, q, np.where(
               np.arange(A.shape[0]) // 256 == page, 0.0, d)), d[sl])

    print("BiCGStab relations (Listing 3): s = g - alpha q")
    alpha = 0.37
    s = g - alpha * q
    lincomb = LinearCombinationRelation(alpha=1.0, beta=-alpha)
    report("s_i = g_i - alpha q_i", lincomb.recover_lhs_page(g[sl], q[sl]), s[sl])
    report("q_i = (g_i - s_i) / alpha", lincomb.recover_w_page(s[sl], g[sl]),
           q[sl])

    print("GMRES relation (Listing 4): Arnoldi basis from the Hessenberg matrix")
    m = 8
    V = np.zeros((A.shape[0], m + 1))
    H = np.zeros((m + 1, m))
    V[:, 0] = g / np.linalg.norm(g)
    for k in range(m):
        w = A @ V[:, k]
        for i in range(k + 1):
            H[i, k] = w @ V[:, i]
            w -= H[i, k] * V[:, i]
        H[k + 1, k] = np.linalg.norm(w)
        V[:, k + 1] = w / H[k + 1, k]
    hessenberg = HessenbergRelation(blocked)
    lost_column = 5
    report(f"v_{lost_column} from H and the other basis vectors",
           hessenberg.recover_basis_vector(lost_column, V, H), V[:, lost_column])

    print("\nEvery dynamic vector of the three solvers is recoverable from")
    print("data that coexists with it, which is the basis of FEIR/AFEIR.")


if __name__ == "__main__":
    main()
