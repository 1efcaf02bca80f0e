"""Record ``solve_oracle.json``: whole solves from the parent commit.

For FEIR, AFEIR, Lossy and ckpt under rate-based faults this stores the
SHA-256 of the final iterate's bytes, the iteration count, the simulated
solve time and every ``StateBreakdown`` field (``float.hex``) as commit
``4ff29e5`` produced them by rebuilding and list-scheduling a task graph
per faulted iteration.  ``tests/solvers/test_plan_timing.py`` requires
the plan-timed solver to reproduce them exactly.  Run it with that
commit on the path (it uses public API only, so any later commit works
too — and must print the same file)::

    PYTHONPATH=/tmp/parent/src python tests/solvers/fixtures/generate_solve_oracle.py
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from pathlib import Path

import numpy
import scipy

from repro.core.manager import make_strategy
from repro.faults.scenarios import ErrorScenario
from repro.matrices.laplacian import laplacian_2d
from repro.matrices.stencil import stencil_rhs
from repro.precond.block_jacobi import BlockJacobiPreconditioner
from repro.solvers.resilient_cg import ResilientCG, SolverConfig

OUT = Path(__file__).with_name("solve_oracle.json")

METHODS = ("FEIR", "AFEIR", "Lossy", "ckpt")
#: (normalised error rate, scenario seed, preconditioned?)
SCENARIOS = ((5.0, 11, False), (20.0, 12, False), (50.0, 13, True))
BREAKDOWN = ("useful", "runtime", "idle", "recovery", "checkpoint",
             "communication")


def problem():
    A = laplacian_2d(20)
    return A, stencil_rhs(A, kind="random", seed=7)


def solve(method, rate=0.0, seed=0, preconditioned=False, ideal_time=None):
    A, b = problem()
    config = SolverConfig(num_workers=4, page_size=32, tolerance=1e-10)
    scenario = (ErrorScenario(name=f"rate{rate:g}", normalized_rate=rate,
                              seed=seed) if rate else None)
    preconditioner = (BlockJacobiPreconditioner(A, page_size=32)
                      if preconditioned else None)
    with ResilientCG(A, b, strategy=make_strategy(method) if method else None,
                     preconditioner=preconditioner, scenario=scenario,
                     config=config) as solver:
        return solver.solve(ideal_time=ideal_time)


def observed(result) -> dict:
    """The values the oracle pins, in the form the fixture stores them."""
    return {
        "x_sha256": hashlib.sha256(result.x.tobytes()).hexdigest(),
        "iterations": result.record.iterations,
        "solve_time": result.record.solve_time.hex(),
        "faults_detected": result.record.faults_detected,
        "breakdown": {key: getattr(result.trace.breakdown, key).hex()
                      for key in BREAKDOWN},
    }


def numerics_stack() -> str:
    """Iterates are bit-exact only on the stack that recorded them."""
    return f"{platform.machine()}|numpy {numpy.__version__}|scipy {scipy.__version__}"


#: ``OPENBLAS_NUM_THREADS`` when ``solve_oracle.json`` was recorded: unset,
#: spelled as ``bench/harness.py::host_description`` spells it.  The stack
#: string above predates the setting and leaves it out, but iterates
#: depend on it: under ``1``, FEIR's and AFEIR's rate-50 preconditioned
#: cases differ.
RECORDED_BLAS_THREADS = "default"


def blas_threads() -> str:
    """This process's ``OPENBLAS_NUM_THREADS``, in the same spelling."""
    return os.environ.get("OPENBLAS_NUM_THREADS", "default")


def main() -> None:
    if blas_threads() != RECORDED_BLAS_THREADS:
        raise SystemExit(f"record with OPENBLAS_NUM_THREADS unset, as the "
                         f"committed oracle was (here: {blas_threads()})")
    cases = []
    for rate, seed, preconditioned in SCENARIOS:
        ideal = solve(None, preconditioned=preconditioned).solve_time
        for method in METHODS:
            result = solve(method, rate, seed, preconditioned, ideal_time=ideal)
            cases.append({"method": method, "rate": rate, "seed": seed,
                          "preconditioned": preconditioned,
                          "ideal_time": ideal.hex(), **observed(result)})
    OUT.write_text(json.dumps({"recorded_at": "4ff29e5",
                               "stack": numerics_stack(), "cases": cases},
                              indent=1) + "\n")
    for case in cases:
        print(case["method"], case["rate"], case["iterations"],
              case["faults_detected"], float.fromhex(case["solve_time"]))


if __name__ == "__main__":
    main()
