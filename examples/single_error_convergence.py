#!/usr/bin/env python
"""Convergence curves under a single DUE (a textual Figure 3).

Runs the thermal2 analogue with one error injected into the iterate and
prints an ASCII convergence plot (log10 relative residual against
simulated time) for the ideal CG, FEIR, AFEIR, the Lossy Restart and
checkpoint/rollback.

Run with::

    python examples/single_error_convergence.py
"""

from __future__ import annotations

import numpy as np

from repro.campaign.spec import SolverKnobs
from repro.experiments.common import ExperimentConfig
from repro.experiments.fig3 import format_fig3, run_fig3


def ascii_plot(result, width: int = 72, height: int = 18) -> str:
    """Render the residual histories as a rough ASCII chart."""
    symbols = {"Ideal": ".", "AFEIR": "a", "FEIR": "f", "Lossy": "l",
               "ckpt": "c"}
    t_max = max(result.final_times.values())
    curves = {}
    for method, history in result.histories.items():
        times = np.asarray(history.times)
        logres = history.log_residuals()
        curves[method] = (times, logres)
    y_min = min(lr.min() for _, lr in curves.values())
    y_max = max(lr.max() for _, lr in curves.values())
    grid = [[" "] * width for _ in range(height)]
    for method, (times, logres) in curves.items():
        for t, y in zip(times, logres, strict=True):
            col = min(width - 1, int(t / t_max * (width - 1)))
            row = min(height - 1,
                      int((y_max - y) / max(y_max - y_min, 1e-12) * (height - 1)))
            grid[row][col] = symbols[method]
    lines = ["log10(residual)  [" + ", ".join(f"{s}={m}" for m, s in
                                              symbols.items()) + "]"]
    for r, row in enumerate(grid):
        label = f"{y_max - (y_max - y_min) * r / (height - 1):6.1f} |"
        lines.append(label + "".join(row))
    lines.append(" " * 8 + "-" * width)
    lines.append(" " * 8 + f"0 ... simulated time ... {t_max:.3f}s")
    return "\n".join(lines)


def main() -> None:
    config = ExperimentConfig(
        repetitions=1, knobs=SolverKnobs(tolerance=1e-9, max_iterations=8000))
    result = run_fig3(config, matrix="thermal2", inject_fraction=0.4, page=3)
    print(format_fig3(result))
    print()
    print(f"(error injected at t={result.injection_time:.3f}s)")
    print()
    print(ascii_plot(result))


if __name__ == "__main__":
    main()
