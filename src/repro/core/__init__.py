"""Recovery methods for Detected and Uncorrected Errors (DUE).

This package is the paper's primary contribution:

* :mod:`repro.core.relations` — the block redundancy relations of
  Table 1, usable for any iterative solver.
* :mod:`repro.core.interpolation` — exact forward interpolation of a
  lost block (direct diagonal-block solve, least-squares fallback and
  the coupled multi-block solve of Section 2.4).
* :mod:`repro.core.feir` / :mod:`repro.core.afeir` — the Forward Exact
  Interpolation Recovery, with recovery tasks in the critical path
  (FEIR) or overlapped with reductions (AFEIR).
* :mod:`repro.core.lossy` — the Lossy Restart adapted from Langou et
  al., plus the A-norm optimality property proved in Section 4.3.
* :mod:`repro.core.checkpoint` — checkpoint/rollback with the optimal
  checkpointing interval.
* :mod:`repro.core.trivial` — trivial forward recovery (blank page,
  keep going).
"""

from repro.core.manager import make_strategy

__all__ = ["make_strategy"]
