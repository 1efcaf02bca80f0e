"""Matrix and workload generators.

The paper evaluates on nine SPD matrices from the University of Florida
sparse matrix collection and, for the scaling study, on a 27-point
stencil discretisation of Poisson's equation in 3-D (the HPCG operator).
The collection is not redistributable offline, so this package provides:

* exact stencil/Laplacian generators (the 5/7-point Laplacians of
  :mod:`repro.matrices.laplacian`, the 27-point Poisson stencil of the
  scaling experiments), and
* a suite of *synthetic analogues* of the nine UFL matrices
  (:mod:`repro.matrices.suite`), SPD by construction, sized down so the
  full 270-experiment sweep of Figure 4 is tractable on a laptop while
  preserving the qualitative spread of conditioning and sparsity that
  drives the paper's per-matrix differences.
"""

from repro.matrices.laplacian import laplacian_2d

__all__ = ["laplacian_2d"]
