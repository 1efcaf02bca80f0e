"""The bits of a solve must not depend on the BLAS thread count (ROADMAP
item 18).

One small FEIR PCG solve, with 512-row pages and one coupled recovery of
two lost pages of ``x``, runs in two fresh interpreters: one with
``OPENBLAS_NUM_THREADS=1``, one with ``=2``.  The page factors
(``lu_factor`` of a 512-row block, through ``diag_factor``) and the
coupled solve (``np.linalg.solve``) go through multithreaded LAPACK, so
today the iterates differ.  Strict: once item 18's thread-independent
factors land with the v2 store schema, this passes and must become a
plain test.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SOLVE = """
import hashlib
from repro.core.manager import make_strategy
from repro.faults.injector import Injection
from repro.faults.scenarios import multi_error_scenario
from repro.matrices.laplacian import laplacian_2d
from repro.matrices.stencil import stencil_rhs
from repro.precond.block_jacobi import BlockJacobiPreconditioner
from repro.solvers.resilient_cg import ResilientCG, SolverConfig

A = laplacian_2d(64)
b = stencil_rhs(A, kind="random", seed=7)
# Two pages of x lost at one instant: one coupled recovery.
scenario = multi_error_scenario([Injection(2e-3, "x", 2),
                                 Injection(2e-3, "x", 5)])
with ResilientCG(A, b, strategy=make_strategy("FEIR"),
                 preconditioner=BlockJacobiPreconditioner(A, page_size=512),
                 scenario=scenario,
                 config=SolverConfig(page_size=512,
                                     tolerance=1e-10)) as solver:
    result = solver.solve()
assert result.converged and result.stats.pages_recovered == 2
print(hashlib.sha256(result.x.tobytes()).hexdigest())
"""


def solve_with_blas_threads(threads: int) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=str(Path(repro.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", SOLVE], env=env,
                          capture_output=True, text=True, timeout=300)
    if done.returncode != 0:  # not the expected failure: an error
        raise RuntimeError(done.stderr)
    return done.stdout.strip()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 18: page factors and coupled solves go through "
    "multithreaded LAPACK, so their bits follow OPENBLAS_NUM_THREADS "
    "until v2"))
def test_a_feir_pcg_solve_ignores_the_blas_thread_count():
    assert solve_with_blas_threads(1) == solve_with_blas_threads(2)
