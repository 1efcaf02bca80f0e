"""Record ``grid_oracle.json``: the iterates of the benchmark's campaign grid.

``CampaignResult.fingerprint`` hashes a campaign's aggregates only, so a
change that moved an iterate and left every aggregate in place would not
show in it.  This pins each trial of a grid shaped like the campaign
benchmark's — ``laplacian2d:20``, page 50, tolerance 1e-8; FEIR, AFEIR,
Lossy and ckpt at rates 1, 5 and 20, two repetitions each, plus the
ideal run — as ``solve_trial`` computes it: the SHA-256 of the final
iterate's bytes, the iteration count, the simulated solve time and every
field of ``SolveResult.trace`` (floats as ``float.hex``).
``tests/campaign/test_grid_oracle.py`` requires the current tree to
reproduce them exactly.  It uses public API only, so it runs against
any later commit too — and must print the same file::

    PYTHONPATH=src python tests/campaign/fixtures/generate_grid_oracle.py
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from pathlib import Path

import numpy
import scipy

from repro.campaign import CampaignSpec, MatrixSpec, SolverKnobs
from repro.campaign.engine import solve_trial
from repro.campaign.spec import TrialSpec
from repro.campaign.store import CampaignCache

OUT = Path(__file__).with_name("grid_oracle.json")

METHODS = ("FEIR", "AFEIR", "Lossy", "ckpt")
RATES = (1.0, 5.0, 20.0)
REPETITIONS = 2
SEED = 20150715
BREAKDOWN = ("useful", "runtime", "idle", "recovery", "checkpoint",
             "communication")


def spec() -> CampaignSpec:
    matrix = MatrixSpec.parametric("laplacian2d", nx=20, ny=20, rhs_seed=7)
    return CampaignSpec(
        matrices=[matrix], methods=METHODS, rates=RATES,
        repetitions=REPETITIONS, seed=SEED,
        knobs=SolverKnobs(tolerance=1e-8, max_iterations=4000,
                          page_size=50),
        name="grid-oracle")


def trials():
    """The ideal run, then the grid's trials in expansion order."""
    grid = spec()
    ideal = TrialSpec(index=-1, matrix=grid.matrices[0], method=None,
                      rate=0.0, repetition=0,
                      seed=numpy.random.SeedSequence(SEED), knobs=grid.knobs)
    return [ideal, *grid.expand()]


def observed(result) -> dict:
    """The values the oracle pins, in the form the fixture stores them."""
    trace = result.trace
    return {
        "x_sha256": hashlib.sha256(result.x.tobytes()).hexdigest(),
        "iterations": result.record.iterations,
        "solve_time": result.record.solve_time.hex(),
        "faults_detected": result.record.faults_detected,
        "trace": {**{key: getattr(trace.breakdown, key).hex()
                     for key in BREAKDOWN},
                  "wall_time": trace.wall_time.hex(),
                  "task_count": trace.task_count},
    }


def solve_all() -> list:
    cache = CampaignCache()
    return [{"method": trial.method, "rate": trial.rate,
             "repetition": trial.repetition,
             **observed(solve_trial(trial, cache))}
            for trial in trials()]


def numerics_stack() -> str:
    """Iterates are bit-exact only on the stack that recorded them."""
    return f"{platform.machine()}|numpy {numpy.__version__}|scipy {scipy.__version__}"


#: ``OPENBLAS_NUM_THREADS`` when ``grid_oracle.json`` was recorded: unset,
#: spelled as ``bench/harness.py::host_description`` spells it.  Coupled
#: recoveries over 100-150 unknowns change bits with the BLAS thread
#: count, so the test skips under another setting and names it.
RECORDED_BLAS_THREADS = "default"


def blas_threads() -> str:
    """This process's ``OPENBLAS_NUM_THREADS``, in the same spelling."""
    return os.environ.get("OPENBLAS_NUM_THREADS", "default")


def main() -> None:
    if blas_threads() != RECORDED_BLAS_THREADS:
        raise SystemExit(f"record with OPENBLAS_NUM_THREADS unset, as the "
                         f"committed oracle was (here: {blas_threads()})")
    cases = solve_all()
    OUT.write_text(json.dumps({"recorded_at": "58e1d68",
                               "stack": numerics_stack(),
                               "blas_threads": RECORDED_BLAS_THREADS,
                               "cases": cases}, indent=1) + "\n")
    for case in cases:
        print(case["method"], case["rate"], case["repetition"],
              case["iterations"], case["faults_detected"],
              float.fromhex(case["solve_time"]))


if __name__ == "__main__":
    main()
