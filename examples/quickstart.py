#!/usr/bin/env python
"""Quickstart: protect a CG solve against DUE with exact forward recovery.

Builds a 2-D Poisson problem, injects one page-sized memory error into
the iterate mid-solve, and compares the ideal CG against FEIR (recovery
in the critical path) and AFEIR (recovery overlapped with reductions).

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import ResilientCG, SolverConfig, make_strategy
from repro.faults import single_error_scenario
from repro.matrices import laplacian_2d
from repro.matrices.stencil import stencil_rhs


def main() -> None:
    # 1. Build a problem: a 64x64 Poisson grid (4096 unknowns).
    A = laplacian_2d(64)
    b = stencil_rhs(A, kind="random", seed=0)
    config = SolverConfig(num_workers=8, page_size=128)

    # 2. Ideal (fault-free, resilience-free) baseline.
    ideal = ResilientCG(A, b, config=config).solve()
    print("ideal    :", ideal.record.summary())

    # 3. Inject one DUE into page 5 of the iterate at 40% of the solve.
    scenario = single_error_scenario("x", page=5,
                                     time=0.4 * ideal.record.solve_time)

    # 4. Solve with exact forward recovery, in and out of the critical path.
    for method in ("FEIR", "AFEIR", "Lossy", "ckpt"):
        strategy = make_strategy(method, checkpoint_interval=100)
        solver = ResilientCG(A, b, strategy=strategy, scenario=scenario,
                             config=config)
        result = solver.solve(ideal_time=ideal.record.solve_time)
        slowdown = result.record.slowdown_vs(ideal.record)
        print(f"{method:<9}: {result.record.summary()}  "
              f"(slowdown {slowdown:+.2f}%)")

    print("\nFEIR/AFEIR repair the lost page exactly from the relations of "
          "Table 1,\nso they keep the ideal convergence; Lossy restarts and "
          "checkpointing rolls back.")


if __name__ == "__main__":
    main()
