"""Figure 5 — speedup of the MPI+OmpSs resilient CGs on 64-1024 cores.

Shapes to reproduce (paper, 27-point Poisson on 512^3 unknowns):

* the ideal CG reaches ~80% parallel efficiency at 1024 cores;
* AFEIR and FEIR scale close to the ideal CG (speedups around 7.5-10 at
  1024 cores with 1-2 errors);
* the Lossy Restart trails them (8.2 / 4.8);
* checkpointing and the trivial method stay below a third of the ideal
  CG's speedup.

The driver owns every solve: the calibration grid and the measured rows
are campaign trials (:func:`~repro.experiments.common.driver_cell`)
through the one trial pipeline, and
:class:`~repro.distributed.cluster.ClusterModel` is handed the iteration
counts they measure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.campaign.engine import TrialRunner, solve_trial
from repro.campaign.spec import MatrixSpec, SolverKnobs, TrialSpec
from repro.campaign.store import CampaignCache
from repro.core.manager import STRATEGY_NAMES
from repro.distributed.cluster import (Calibration, ClusterModel,
                                       ScalingResult)
from repro.distributed.comm import (CommunicationModel,
                                    fit_communication_model)
from repro.distributed.partition import StripPartition
from repro.distributed.ranks import RankCommStats
from repro.experiments.common import driver_cell, solve_cell
from repro.faults.injector import Injection
from repro.faults.scenarios import ErrorScenario, multi_error_scenario
from repro.memory.pages import page_count

#: Paper reference speedups on 1024 cores for quick comparison.
PAPER_FIG5_1024 = {
    ("AFEIR", 1): 10.01, ("AFEIR", 2): 6.03,
    ("FEIR", 1): 7.50, ("FEIR", 2): 7.65,
    ("Lossy", 1): 8.17, ("Lossy", 2): 4.82,
}


@dataclass
class Fig5Result:
    """Scaling results plus the model used to produce them."""

    results: List[ScalingResult]
    model: ClusterModel

    def speedup(self, method: str, cores: int, errors: int) -> float:
        for r in self.results:
            if r.method == method and r.cores == cores and r.errors == errors:
                return r.speedup
        raise KeyError(f"no result for {method} at {cores} cores, "
                       f"{errors} errors")


def calibration_cell(model: ClusterModel, method: Optional[str],
                     scenario: Optional[ErrorScenario] = None) -> TrialSpec:
    """One calibration solve of ``model`` as a campaign trial: the
    27-point Poisson problem at ``model.calibration_points`` with the
    seedless right-hand side ``b = A·1``, under the model's workers,
    tolerance, checkpoint interval and cost model."""
    return driver_cell(
        MatrixSpec.parametric("poisson3d27", sparse=False, rhs_seed=None,
                              nx=model.calibration_points),
        SolverKnobs(num_workers=model.workers_per_rank, page_size=128,
                    tolerance=model.tolerance,
                    checkpoint_interval=model.checkpoint_interval,
                    cost_model=model.cost_model),
        method, scenario)


def calibrate(model: ClusterModel, cache: CampaignCache) -> Calibration:
    """Measure ``model``'s iteration counts per (method, errors).

    The grid — the ideal run, then every method under 0, 1 and 2 errors
    injected at fixed fractions of the ideal solve time — goes cell by
    cell through the read-through :class:`TrialRunner`, so over a store
    a warm Figure 5 performs no solve at all.
    """
    run = TrialRunner(cache)
    ideal_cell = calibration_cell(model, None)
    ideal = run(ideal_cell)
    pages = page_count(model.calibration_points ** 3,
                       ideal_cell.knobs.page_size)
    calibration = {"ideal": dict.fromkeys((0, 1, 2), ideal.iterations)}
    for method in STRATEGY_NAMES:
        calibration[method] = {}
        for errors in (0, 1, 2):
            # Errors hit pages of the iterate at evenly spread times,
            # mirroring the paper's "1 and 2 errors per run".
            scenario = multi_error_scenario(
                [Injection(time=ideal.solve_time * (k + 1) / (errors + 1),
                           vector="x", page=(7 * (k + 1)) % pages)
                 for k in range(errors)],
                name=f"{method}-{errors}err") if errors else None
            result = run(calibration_cell(model, method, scenario))
            calibration[method][errors] = max(result.iterations, 1)
    return calibration


def run_fig5(core_counts: Sequence[int] = (64, 128, 256, 512, 1024),
             error_counts: Sequence[int] = (1, 2),
             calibration_points: int = 24,
             target_points: int = 512,
             model: Optional[ClusterModel] = None,
             store=None) -> Fig5Result:
    """Reproduce the Figure 5 scaling study with the simulated cluster.

    The 16 calibration solves (:func:`calibrate`) are stored trials of
    ``store`` (a :class:`~repro.campaign.store.CampaignStore`), so a
    warm re-run executes none of them.
    """
    model = model or ClusterModel(target_points=target_points,
                                  calibration_points=calibration_points)
    calibration = calibrate(model, CampaignCache(store))
    return Fig5Result(results=model.run(calibration, core_counts,
                                        error_counts), model=model)


def format_fig5(result: Fig5Result) -> str:
    """Render the speedup table (methods x cores, per error count)."""
    cores = sorted({r.cores for r in result.results})
    lines: List[str] = []
    for errors in sorted({r.errors for r in result.results if r.errors > 0}):
        rows: List[List[object]] = []
        methods = ["Ideal"] + sorted({r.method for r in result.results
                                      if r.method != "Ideal"})
        for method in methods:
            row: List[object] = [method]
            for c in cores:
                matches = [r for r in result.results
                           if r.method == method and r.cores == c
                           and (r.errors == errors or method == "Ideal")]
                row.append(matches[0].speedup if matches else float("nan"))
            rows.append(row)
        lines.append(format_table(
            ["method"] + [f"{c} cores" for c in cores], rows,
            title=f"Figure 5: speedup w.r.t. ideal on 64 cores, "
                  f"{errors} error(s) per run"))
        lines.append("")
    eff = result.model.ideal_parallel_efficiency(max(cores))
    lines.append(f"Ideal parallel efficiency at {max(cores)} cores: "
                 f"{100 * eff:.2f}% (paper: 80.17%)")
    return "\n".join(lines)


# ======================================================================
# measured mode: really execute the strip partition at small scale
# ======================================================================

@dataclass
class MeasuredRankRow:
    """Measured vs. modelled communication of one rank-parallel solve."""

    ranks: int
    method: str
    iterations: int
    halo_exchanges: int
    allreduces: int
    #: Measured wall milliseconds per halo exchange / tree allreduce
    #: (critical path across ranks, from the rank runtime's clocks).
    measured_halo_ms: float
    measured_allreduce_ms: float
    #: The analytic CommunicationModel's prediction for the *same* small
    #: problem and partition (worst rank's per-neighbour halo sizes).
    model_halo_ms: float
    model_allreduce_ms: float
    halo_bytes: int
    recoveries_by_rank: Dict[int, int]
    #: Recovery tasks whose *measured* wall interval overlapped the
    #: re-enacted halo exchange on the owning rank (resilient methods
    #: run under the threaded x ranks x wall runtime cell).  AFEIR's
    #: asynchrony makes this positive; FEIR's critical-path recovery
    #: structurally cannot overlap the halo, so it stays 0.
    halo_overlapped: int = 0


@dataclass
class MeasuredFig5Result:
    """The measured mini-Figure-5: small problem, 1-8 real ranks."""

    rows: List[MeasuredRankRow]
    points: int
    n: int
    page_size: int
    #: Interconnect constants fitted from the measured transfers.
    fitted_latency: float
    fitted_bandwidth: float
    calibrated: CommunicationModel
    #: Per-iteration communication time of the ideal CG at the paper's
    #: 512^3 / 1024-core point, under the default and the calibrated
    #: interconnect constants.
    default_comm_per_iter_1024: float
    calibrated_comm_per_iter_1024: float


def _comm_per_iteration(model: ClusterModel, cores: int) -> float:
    """Halo + allreduce share of one ideal iteration at ``cores``."""
    return model.comm_time_per_iteration(model._ranks_for(cores))


def run_fig5_measured(ranks: Sequence[int] = (1, 2, 4),
                      points: int = 10,
                      page_size: int = 128,
                      tolerance: float = 1e-10,
                      methods: Sequence[str] = ("ideal", "FEIR", "AFEIR"),
                      target_points: int = 512) -> MeasuredFig5Result:
    """Execute the Figure 5 strip partition for real at small scale.

    For each rank count a trial with ``SolverKnobs(ranks=N)`` goes
    through :func:`~repro.campaign.engine.solve_trial` (over a storeless
    cache: these are measurements, always executed) — one worker per
    strip, real halo exchange of the search direction, reproducibly-
    ordered tree allreduces, recovery on the page owner — and the
    measured wall times of the exchanges are reported next to what the
    analytic
    :class:`~repro.distributed.comm.CommunicationModel` predicts for the
    same partition.  The measured point-to-point transfers then
    calibrate the interconnect constants of the 512^3 projection
    (:func:`~repro.distributed.comm.fit_communication_model`).

    The resilient methods run under the runtime cell the unified
    composition made expressible — ``scheduler="threaded"``,
    ``placement="ranks"``, ``clock="wall"`` — so each iteration is
    additionally re-enacted on real threads with the halo exchange
    spliced in, and the vulnerable-window monitor measures whether the
    recovery scan's wall interval overlapped the halo exchange on the
    owning rank (AFEIR: yes; FEIR: structurally never).
    """
    matrix = MatrixSpec.parametric("poisson3d27", sparse=False, rhs_seed=7,
                                   nx=points)
    knobs = SolverKnobs(page_size=page_size, tolerance=tolerance)
    cache = CampaignCache()
    A, _ = matrix.build()       # partitioned for the model's columns
    n = A.shape[0]
    num_pages = page_count(n, page_size)
    comm_default = CommunicationModel()
    ideal = solve_trial(driver_cell(matrix, knobs, None), cache)
    one_error = multi_error_scenario(
        [Injection(time=ideal.solve_time * 0.5, vector="x",
                   page=num_pages // 2)], name="measured")

    rows: List[MeasuredRankRow] = []
    samples: List[Tuple[float, float]] = []
    for r in ranks:
        part = StripPartition(A, r, align=page_size)
        model_halo = max(comm_default.halo_exchange(p.halo_sizes())
                         for p in part.partitions)
        model_allreduce = comm_default.allreduce(r, values=num_pages)
        for method in methods:
            # Ideal rows (and single-strip runs, which have no halo to
            # overlap) stay on the cheap list cell; the others take the
            # threaded re-enactment over the rank placement with the
            # wall clock.  pace=0.0 replays actions as fast as possible
            # (the real halo/probe work still takes measurable wall time).
            cell_knobs = replace(knobs, ranks=r)
            if method == "ideal":
                result = solve_trial(driver_cell(matrix, cell_knobs, None),
                                     cache)
            else:
                if r > 1:
                    cell_knobs = replace(
                        cell_knobs, scheduler="threaded", placement="ranks",
                        clock="wall", pace=0.0)
                result = solve_cell(
                    driver_cell(matrix, cell_knobs, method, one_error),
                    ideal, cache).result
            # A single strip exchanges nothing and keeps no statistics.
            st = result.rank_stats or RankCommStats(ranks=r)
            samples.extend(st.message_samples)
            window = result.window_summary or {}
            rows.append(MeasuredRankRow(
                ranks=r, method=method,
                iterations=result.record.iterations,
                halo_exchanges=st.halo_exchanges, allreduces=st.allreduces,
                measured_halo_ms=1e3 * st.halo_seconds_per_exchange(),
                measured_allreduce_ms=1e3 * st.allreduce_seconds_per_op(),
                model_halo_ms=1e3 * model_halo,
                model_allreduce_ms=1e3 * model_allreduce,
                halo_bytes=st.halo_bytes,
                recoveries_by_rank=dict(st.recoveries_by_rank),
                halo_overlapped=int(
                    window.get("halo_overlapped_recoveries", 0) or 0)))

    if samples:
        calibrated, latency, bandwidth = fit_communication_model(samples)
    else:                               # single-rank-only sweep
        calibrated, latency, bandwidth = (
            comm_default, comm_default.cost_model.network_latency,
            comm_default.cost_model.network_bandwidth)
    base = ClusterModel(target_points=target_points)
    calibrated_model = ClusterModel(target_points=target_points,
                                    comm_model=calibrated)
    return MeasuredFig5Result(
        rows=rows, points=points, n=n, page_size=page_size,
        fitted_latency=latency, fitted_bandwidth=bandwidth,
        calibrated=calibrated,
        default_comm_per_iter_1024=_comm_per_iteration(base, 1024),
        calibrated_comm_per_iter_1024=_comm_per_iteration(
            calibrated_model, 1024))


def format_fig5_measured(result: MeasuredFig5Result) -> str:
    """Render the measured mini-Figure-5 next to the model's numbers."""
    rows: List[List[object]] = []
    for row in result.rows:
        rows.append([
            row.ranks, row.method, row.iterations,
            1e3 * row.measured_halo_ms, 1e3 * row.model_halo_ms,
            1e3 * row.measured_allreduce_ms, 1e3 * row.model_allreduce_ms,
            row.halo_bytes])
    lines = [format_table(
        ["ranks", "method", "iters", "halo us/ex (meas)",
         "halo us/ex (model)", "allreduce us (meas)",
         "allreduce us (model)", "halo bytes"],
        rows,
        title=(f"Figure 5, measured: rank-parallel CG on "
               f"{result.points}^3 Poisson (n={result.n}, page "
               f"{result.page_size}); real halo exchange + tree "
               f"allreduce wall times vs. the analytic model"))]
    recoveries = {}
    for row in result.rows:
        for rank, count in row.recoveries_by_rank.items():
            recoveries[rank] = recoveries.get(rank, 0) + count
    if recoveries:
        lines.append(f"Recovery solves executed on owning ranks: "
                     f"{dict(sorted(recoveries.items()))}")
    overlap_by_method: Dict[str, int] = {}
    for row in result.rows:
        if row.method != "ideal" and row.ranks > 1:
            overlap_by_method[row.method] = (
                overlap_by_method.get(row.method, 0) + row.halo_overlapped)
    if overlap_by_method:
        parts = ", ".join(f"{m}={c}" for m, c in
                          sorted(overlap_by_method.items()))
        lines.append(
            f"Recovery tasks measurably overlapping the halo exchange on "
            f"the owning rank (threaded x ranks x wall cell): {parts} — "
            f"AFEIR's asynchronous recovery hides in the neighbour "
            f"communication, FEIR's critical-path recovery cannot.")
    lines.append(
        f"Interconnect constants fitted from {len(result.rows)} runs' "
        f"measured transfers: latency {1e6 * result.fitted_latency:.1f} us, "
        f"bandwidth {result.fitted_bandwidth / 1e6:.1f} MB/s "
        f"(shared-memory queues, so expect queue-hop latency, not "
        f"InfiniBand).")
    lines.append(
        f"Ideal-CG comm per iteration at 512^3 on 1024 cores: "
        f"{1e3 * result.default_comm_per_iter_1024:.3f} ms with default "
        f"constants, {1e3 * result.calibrated_comm_per_iter_1024:.3f} ms "
        f"re-anchored on the measured exchanges.")
    lines.append("A single rank exchanges no halo: both columns are 0 at "
                 "ranks=1 (the old model charged a phantom neighbour).")
    return "\n".join(lines)
