"""Record ``drivers_oracle.json``: Table 2, Table 3 and Fig. 3 numbers
from the parent commit.

For the two-matrix quick configuration of
``tests/experiments/test_drivers.py`` this stores every Table 2
overhead, every Table 3 increase and Fig. 3's final times, injection
time (``float.hex``) and per-method iteration counts as commit
``200e43e`` produced them through ``experiments.common``'s own
``build_problem``/``run_ideal``/``run_method``.
``tests/experiments/test_drivers.py`` requires the drivers, which now
describe their cells as ``TrialSpec``s and solve them through
``campaign.engine.solve_trial``, to reproduce them exactly.  Run it with
that commit on the path (it reads the drivers' results only, so any
later commit works too — and must print the same file)::

    PYTHONPATH=/tmp/parent/src python tests/experiments/fixtures/generate_drivers_oracle.py
"""

from __future__ import annotations

import dataclasses
import json
import platform
from pathlib import Path

import numpy
import scipy

from repro.experiments.common import ExperimentConfig
from repro.experiments.fig3 import run_fig3
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3

OUT = Path(__file__).with_name("drivers_oracle.json")

MATRICES = ("qa8fm", "Dubcova3")
KNOBS = dict(tolerance=1e-8, max_iterations=8000)
FIG3 = dict(matrix="Dubcova3", page=2)


def quick_config(seed=None, **knobs) -> ExperimentConfig:
    """The quick configuration; ``seed`` (the right-hand sides') and
    ``knobs`` mutate it for the test that shows the oracle can fail."""
    shape = dict(matrices=MATRICES, repetitions=1)
    if seed is not None:
        shape["seed"] = seed
    knobs = {**KNOBS, **knobs}
    if "knobs" not in {f.name for f in dataclasses.fields(ExperimentConfig)}:
        return ExperimentConfig(**shape, **knobs)  # commit 200e43e's spelling
    from repro.campaign.spec import SolverKnobs
    return ExperimentConfig(**shape, knobs=SolverKnobs(**knobs))


def observed(config: ExperimentConfig) -> dict:
    """The values the oracle pins, in the form the fixture stores them."""
    table2 = run_table2(config)
    table3 = run_table3(config)
    fig3 = run_fig3(config, **FIG3)
    return {
        "table2": {method: value.hex()
                   for method, value in table2.overheads.items()},
        "table3": {method: {state: value.hex()
                            for state, value in states.items()}
                   for method, states in table3.increases.items()},
        "fig3": {
            "injection_time": fig3.injection_time.hex(),
            "final_times": {method: value.hex()
                            for method, value in fig3.final_times.items()},
            "iterations": {method: history.final_iteration
                           for method, history in fig3.histories.items()},
        },
    }


def numerics_stack() -> str:
    """Solve times are bit-exact only on the stack that recorded them.

    The BLAS thread count is left out, unlike in ``tests/solvers``'
    solve oracle, whose preconditioned cases move with it: these
    unpreconditioned solves read the same bits under
    ``OPENBLAS_NUM_THREADS=1`` as with it unset."""
    return f"{platform.machine()}|numpy {numpy.__version__}|scipy {scipy.__version__}"


def main() -> None:
    payload = {
        "recorded_from": "200e43e (PR 18, experiments.common's own solver "
                         "stack)",
        "numerics_stack": numerics_stack(),
        "matrices": list(MATRICES), "knobs": KNOBS, "fig3": FIG3,
        "observed": observed(quick_config()),
    }
    OUT.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
