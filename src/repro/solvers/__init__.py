"""Krylov subspace solvers.

Two layers:

* :mod:`repro.solvers.reference` — textbook CG and PCG (Listings 1 and 5
  of the paper), an independent oracle the tests validate the resilient
  solver against.
* :mod:`repro.solvers.resilient_cg` — the task-decomposed, page-blocked
  CG/PCG with double-buffered ``d``, fault injection hooks, bitmask skip
  protocol and pluggable recovery strategies (the paper's implementation
  target, Section 3.3).
"""
