"""repro — reproduction of "Exploiting Asynchrony from Exact Forward Recovery
for DUE in Iterative Solvers" (Jaulmes et al., SC 2015).

The package provides:

* a task-decomposed, page-blocked resilient CG/PCG
  (:class:`repro.solvers.resilient_cg.ResilientCG`), with textbook CG and
  PCG beside it as the tests' oracle (:mod:`repro.solvers.reference`),
* the forward exact interpolation recoveries FEIR and AFEIR, plus the
  Lossy Restart, checkpoint/rollback and trivial baselines
  (:mod:`repro.core`),
* a software-paged memory + DUE fault-injection substrate
  (:mod:`repro.memory`, :mod:`repro.faults`),
* a deterministic discrete-event task runtime standing in for OmpSs
  (:mod:`repro.runtime`) and a simulated MPI layer (:mod:`repro.distributed`),
* workload generators (:mod:`repro.matrices`), preconditioners
  (:mod:`repro.precond`) and experiment drivers reproducing every table
  and figure of the paper's evaluation (:mod:`repro.experiments`).

Quick start::

    import numpy as np
    from repro import ResilientCG, SolverConfig, make_strategy
    from repro.matrices import laplacian_2d
    from repro.matrices.stencil import stencil_rhs

    A = laplacian_2d(64)
    b = stencil_rhs(A)
    solver = ResilientCG(A, b, strategy=make_strategy("FEIR"),
                         config=SolverConfig(num_workers=8))
    result = solver.solve()
    print(result.record.summary())
"""

from repro.core.manager import make_strategy
from repro.solvers.resilient_cg import ResilientCG, SolverConfig

__version__ = "1.0.0"

__all__ = [
    "ResilientCG",
    "SolverConfig",
    "make_strategy",
    "__version__",
]
