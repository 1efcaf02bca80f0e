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
