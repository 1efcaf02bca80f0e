"""Record ``fig5_oracle.json``: Figure 5's numbers from the parent commit.

Stores what commit ``b927c21`` produced through ``distributed.cluster``'s
own calibration-task stack (its private task dataclass, problem cache
and ``scalars`` store entries) and ``experiments.fig5``'s hand-built
solvers: the calibration table at 12
and 16 points, every ``ScalingResult`` of
``run_fig5(calibration_points=16)`` on the default grid (``float.hex``),
and the deterministic columns of ``run_fig5_measured(ranks=(1, 2),
points=8)`` together with the ``(iterations, simulated solve time)`` of
every solve it made, in call order.  ``tests/experiments/test_drivers.py``
requires the driver, whose cells are now ``TrialSpec``s through
``campaign.engine.solve_trial``, to reproduce them exactly.  Run it with
that commit on the path (any later commit works too — and must print
the same file)::

    PYTHONPATH=/root/scratch/parent/src python tests/experiments/fixtures/generate_fig5_oracle.py
"""

from __future__ import annotations

import json
import platform
from contextlib import contextmanager
from pathlib import Path

import numpy
import scipy

from repro.distributed.cluster import ClusterModel
from repro.experiments.fig5 import run_fig5, run_fig5_measured
from repro.solvers.resilient_cg import ResilientCG

OUT = Path(__file__).with_name("fig5_oracle.json")

CALIBRATION_POINTS = (12, 16)
MODELED = dict(calibration_points=16)
MEASURED = dict(ranks=(1, 2), points=8)


@contextmanager
def counted_solves():
    """``(iterations, solve_time.hex())`` of every ``ResilientCG.solve``
    made inside the block, in call order."""
    solves, original = [], ResilientCG.solve

    def solve(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        solves.append([result.record.iterations, result.solve_time.hex()])
        return result

    ResilientCG.solve = solve
    try:
        yield solves
    finally:
        ResilientCG.solve = original


def calibration_table(points: int, store=None) -> dict:
    """Iteration counts per method for 0, 1 and 2 errors."""
    model = ClusterModel(calibration_points=points)
    if hasattr(model, "_calibrate"):        # commit b927c21's spelling
        table = model._calibrate(store=store)
    else:
        from repro.campaign.store import CampaignCache
        from repro.experiments.fig5 import calibrate
        table = calibrate(model, CampaignCache(store))
    return {method: [counts[errors] for errors in (0, 1, 2)]
            for method, counts in table.items()}


def modeled(store=None) -> list:
    return [[r.method, r.cores, r.errors, r.iterations, r.time.hex(),
             r.speedup.hex(), r.parallel_efficiency.hex()]
            for r in run_fig5(store=store, **MODELED).results]


def measured() -> dict:
    with counted_solves() as solves:
        result = run_fig5_measured(**MEASURED)
    return {
        "n": result.n,
        "rows": [[row.ranks, row.method, row.iterations, row.halo_exchanges,
                  row.allreduces, row.halo_bytes,
                  row.model_halo_ms.hex(), row.model_allreduce_ms.hex(),
                  sorted(row.recoveries_by_rank.items())]
                 for row in result.rows],
        "solves": solves,
    }


def observed() -> dict:
    """The values the oracle pins, in the form the fixture stores them
    (through JSON: tuples read back as lists)."""
    return json.loads(json.dumps({
        "calibration": {str(points): calibration_table(points)
                        for points in CALIBRATION_POINTS},
        "modeled": modeled(),
        "measured": measured(),
    }))


def numerics_stack() -> str:
    """Solve times are bit-exact only on the stack that recorded them."""
    return f"{platform.machine()}|numpy {numpy.__version__}|scipy {scipy.__version__}"


def main() -> None:
    payload = {
        "recorded_from": "b927c21 (PR 21, distributed.cluster's own "
                         "calibration stack)",
        "numerics_stack": numerics_stack(),
        "calibration_points": list(CALIBRATION_POINTS),
        "run_fig5": MODELED, "run_fig5_measured": MEASURED,
        "observed": observed(),
    }
    OUT.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
