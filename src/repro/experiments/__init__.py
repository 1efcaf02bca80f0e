"""Experiment drivers reproducing every table and figure of the paper.

================  ======================================================
driver            paper result
================  ======================================================
``table2``        Table 2 — fault-free overheads of the resilience methods
``table3``        Table 3 — per-state time increase (imbalance/runtime/useful)
``fig3``          Figure 3 — convergence over time with one error in ``x``
``fig4``          Figure 4 — slowdown vs normalised error rate, 5 methods
``fig5``          Figure 5 — MPI+OmpSs speedups on 64–1024 cores
================  ======================================================

Each driver exposes a ``run(...)`` returning structured results and a
``format_*`` helper printing the same rows/series the paper reports.
The drivers own the solves — every cell is a campaign trial through
``campaign.engine.solve_trial`` (Figure 5's ``ClusterModel`` is handed
the iteration counts its driver measures).  The benchmark harness under
``benchmarks/`` simply calls these drivers.
"""

from repro.experiments.common import ExperimentConfig, MethodRun
from repro.experiments.table2 import run_table2, format_table2
from repro.experiments.table3 import run_table3, format_table3
from repro.experiments.fig3 import run_fig3, format_fig3
from repro.experiments.fig4 import run_fig4, format_fig4
from repro.experiments.fig5 import run_fig5, format_fig5

__all__ = [
    "ExperimentConfig",
    "MethodRun",
    "format_fig3",
    "format_fig4",
    "format_fig5",
    "format_table2",
    "format_table3",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_table2",
    "run_table3",
]
