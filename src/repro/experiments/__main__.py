"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro.experiments table2
    python -m repro.experiments fig4 --quick
    python -m repro.experiments all --quick

``--quick`` uses a reduced matrix/rate grid (the same one the default
benchmark harness uses); without it the full nine-matrix sweep runs.
"""

from __future__ import annotations

import argparse
import sys

from repro.campaign.spec import SolverKnobs
from repro.campaign.store import (StoreSchemaError, add_store_arguments,
                                  store_from_args)
from repro.experiments.common import (QUICK_MATRICES, QUICK_RATES,
                                      ExperimentConfig)
from repro.runtime.runtime import add_runtime_arguments, runtime_axes
from repro.experiments.fig3 import format_fig3, run_fig3
from repro.experiments.fig4 import format_fig4, run_fig4
from repro.experiments.fig5 import (format_fig5, format_fig5_measured,
                                    run_fig5, run_fig5_measured)
from repro.experiments.table2 import format_table2, run_table2
from repro.experiments.table3 import format_table3, run_table3

EXPERIMENTS = ("table2", "table3", "fig3", "fig4", "fig5")


def make_config(quick: bool, **axes) -> ExperimentConfig:
    """The experiment configuration; ``axes`` select the runtime cell
    (``scheduler`` / ``placement`` / ``clock`` / ``ranks``)."""
    if quick:
        return ExperimentConfig(
            matrices=QUICK_MATRICES, repetitions=1,
            knobs=SolverKnobs(max_iterations=6000, tolerance=1e-9, **axes))
    return ExperimentConfig(repetitions=2, knobs=SolverKnobs(**axes))


def run_one(name: str, quick: bool, measured: bool = False, store=None,
            **axes) -> str:
    config = make_config(quick, **axes)
    if name == "table2":
        return format_table2(run_table2(config, store=store))
    if name == "table3":
        return format_table3(run_table3(config, store=store))
    if name == "fig3":
        return format_fig3(run_fig3(config, matrix="thermal2", store=store))
    if name == "fig4":
        rates = QUICK_RATES if quick else None
        result = run_fig4(config, rates=rates, store=store) if rates \
            else run_fig4(config, store=store)
        return format_fig4(result)
    if name == "fig5":
        text = format_fig5(run_fig5(calibration_points=16 if quick else 24,
                                    store=store))
        if measured:
            rank_counts = ((1, 2, 4) if config.knobs.ranks == 1
                           else (1, config.knobs.ranks))
            measured_result = run_fig5_measured(
                ranks=rank_counts, points=8 if quick else 10)
            text += "\n\n" + format_fig5_measured(measured_result)
        return text
    raise ValueError(f"unknown experiment {name!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the tables and figures of the SC'15 paper.")
    parser.add_argument("experiment", choices=EXPERIMENTS + ("all",),
                        help="which table/figure to regenerate")
    parser.add_argument("--quick", action="store_true",
                        help="use the reduced matrix/rate grid")
    add_runtime_arguments(parser)
    parser.add_argument("--measured", action="store_true",
                        help="fig5 only: additionally run the measured "
                             "mini-Figure-5 — a small problem really "
                             "executed on 1-4 rank workers, with per-"
                             "iteration halo/allreduce wall times reported "
                             "next to the analytic projection and used to "
                             "calibrate its interconnect constants")
    add_store_arguments(parser)
    args = parser.parse_args(argv)
    if args.measured and args.experiment not in ("fig5", "all"):
        parser.error("--measured only applies to fig5")

    try:
        store = store_from_args(args)
    except StoreSchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    targets = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    for name in targets:
        print(f"\n=== {name} ===")
        print(run_one(name, args.quick, measured=args.measured, store=store,
                      **runtime_axes(args)))
    if store is not None:
        print(f"\n{store.stats_line()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
