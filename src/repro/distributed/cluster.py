"""Cluster-scale model for the Figure 5 scaling study.

The model is a hybrid:

* *iteration counts* per method and error count are handed in: the
  Figure 5 driver (:func:`repro.experiments.fig5.calibrate`) measures
  them with real resilient-CG solves of a small 27-point Poisson
  problem, as campaign trials (so restart penalties, rollback losses
  and exact-recovery behaviour are measured, not guessed) — this module
  solves nothing and holds no state;
* *per-iteration time* at the target problem size (the paper's 512^3
  unknowns) and rank count is computed analytically from the cost model:
  per-rank roofline compute over 8 worker cores, strip-partition halo
  exchange, and two tree allreduces per iteration, plus each method's
  fault-free per-iteration overhead (recovery-task barriers for FEIR,
  checkpoint writes for the checkpointing method);
* per-error costs (recovery solves, signal servicing, rollback reads)
  are added on top, in or out of the critical path depending on the
  method.

Speedups are reported relative to the ideal CG on the smallest core
count (64 cores = 8 ranks), exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.checkpoint import CheckpointStrategy
from repro.core.manager import STRATEGY_NAMES
from repro.runtime.cost_model import (CostModel, DEFAULT_COST_MODEL,
                                      FAULT_SERVICE_TIME)


@dataclass
class ScalingResult:
    """Speedup of one method at one core count and error count."""

    method: str
    cores: int
    errors: int
    iterations: int
    time: float
    speedup: float
    parallel_efficiency: float


#: Measured iteration counts, ``calibration[method][errors]`` for every
#: strategy name plus ``"ideal"`` and ``errors`` in (0, 1, 2).
Calibration = Dict[str, Dict[int, int]]


@dataclass
class ClusterModel:
    """Analytic MPI+tasks scaling model calibrated on small-problem runs."""

    #: Unknowns per dimension of the *target* problem (the paper uses 512).
    target_points: int = 512
    #: Unknowns per dimension of the small problem the driver measures
    #: iteration counts on (kept small so it calibrates in seconds).
    calibration_points: int = 24
    workers_per_rank: int = 8
    #: Prices every term, the halo and allreduce ones included.  Its
    #: interconnect constants default to InfiniBand-era values; pass one
    #: calibrated by
    #: :func:`~repro.distributed.comm.fit_communication_model` to anchor
    #: the projection on *measured* rank-runtime exchanges.
    cost_model: CostModel = DEFAULT_COST_MODEL
    #: Convergence threshold of the calibration solves.
    tolerance: float = 1e-10
    checkpoint_interval: int = 50

    # ------------------------------------------------------------------
    # analytic per-iteration time at the target scale
    # ------------------------------------------------------------------
    def _target_rows(self) -> int:
        return self.target_points ** 3

    def iteration_time(self, num_ranks: int, method: str = "ideal") -> float:
        """Per-iteration wall time of the hybrid CG at the target scale."""
        if num_ranks < 1:
            raise ValueError(f"num_ranks must be >= 1, got {num_ranks}")
        cm = self.cost_model
        n = self._target_rows()
        rows = n / num_ranks
        nnz = 27.0 * rows
        # Local compute of one iteration (spmv + 3 axpy + 2 dots), spread over
        # the rank's worker cores.
        flops = 2.0 * nnz + 5.0 * 2.0 * rows
        bytes_moved = 12.0 * nnz + 10.0 * 8.0 * rows
        compute = cm.kernel_time(flops, bytes_moved) / self.workers_per_rank
        # Task runtime overhead: ~6 strip-mined task groups per iteration.
        runtime = 6.0 * cm.task_overhead
        time = compute + self.comm_time_per_iteration(num_ranks) + runtime
        # Method-specific fault-free per-iteration overhead.
        if method == "FEIR":
            time += 3.0 * (cm.task_overhead + cm.recovery_check())
        elif method == "AFEIR":
            time += 1.0 * cm.task_overhead
        elif method == "ckpt":
            volume = CheckpointStrategy.checkpoint_bytes(rows)
            time += cm.checkpoint_write(volume) / self.checkpoint_interval
        return time

    def neighbour_planes(self, num_ranks: int) -> List[int]:
        """Per-neighbour halo sizes of an interior rank's strip.

        A single rank owns the whole domain and exchanges nothing — the
        old ``2 if num_ranks > 2 else 1`` floor charged ~a millisecond
        of phantom halo per iteration at ``num_ranks == 1``, skewing
        every sweep whose smallest configuration collapses to one rank.
        """
        if num_ranks < 1:
            raise ValueError(f"num_ranks must be >= 1, got {num_ranks}")
        plane = int(self.target_points ** 2)
        if num_ranks == 1:
            return []
        if num_ranks == 2:
            return [plane]
        return [plane, plane]

    def comm_time_per_iteration(self, num_ranks: int) -> float:
        """Halo + allreduce share of one CG iteration at ``num_ranks``."""
        cm = self.cost_model
        return (cm.halo_exchange(self.neighbour_planes(num_ranks))
                + 2.0 * cm.allreduce(8.0, num_ranks))

    def _per_error_cost(self, method: str, num_ranks: int) -> float:
        """Critical-path time added by servicing one DUE at the target scale."""
        cm = self.cost_model
        service = FAULT_SERVICE_TIME
        block = cm.block_solve(512, factorized=False)
        if method == "FEIR":
            return service + block
        if method == "AFEIR":
            return service          # recovery overlapped with computation
        if method == "Lossy":
            # Interpolation plus the restart's full residual recomputation.
            return service + block + self.iteration_time(num_ranks, "ideal")
        if method == "ckpt":
            rows = self._target_rows() / num_ranks
            return service + cm.checkpoint_read(
                CheckpointStrategy.checkpoint_bytes(rows))
        return service                  # Trivial

    # ------------------------------------------------------------------
    # the actual scaling sweep
    # ------------------------------------------------------------------
    def run(self, calibration: Calibration,
            core_counts: Sequence[int] = (64, 128, 256, 512, 1024),
            error_counts: Sequence[int] = (1, 2),
            methods: Sequence[str] = STRATEGY_NAMES) -> List[ScalingResult]:
        """Produce the Figure 5 dataset — speedups per method/cores/errors
        — from the measured iteration counts ``calibration``."""
        if not core_counts:
            raise ValueError("core_counts must not be empty")
        for cores in core_counts:
            self._ranks_for(cores)      # refuse degenerate configurations
        results: List[ScalingResult] = []
        ref_cores = min(core_counts)
        ref_ranks = self._ranks_for(ref_cores)
        ref_time = (calibration["ideal"][0]
                    * self.iteration_time(ref_ranks, "ideal"))
        for cores in core_counts:
            ranks = self._ranks_for(cores)
            # Ideal reference at this core count.
            ideal_time = calibration["ideal"][0] * self.iteration_time(ranks, "ideal")
            results.append(ScalingResult(
                method="Ideal", cores=cores, errors=0,
                iterations=calibration["ideal"][0], time=ideal_time,
                speedup=ref_time / ideal_time,
                parallel_efficiency=(ref_time / ideal_time)
                / (cores / ref_cores)))
            for errors in error_counts:
                for method in methods:
                    iterations = calibration[method][errors]
                    time = iterations * self.iteration_time(ranks, method)
                    time += errors * self._per_error_cost(method, ranks)
                    speedup = ref_time / time
                    results.append(ScalingResult(
                        method=method, cores=cores, errors=errors,
                        iterations=iterations, time=time, speedup=speedup,
                        parallel_efficiency=speedup / (cores / ref_cores)))
        return results

    def _ranks_for(self, cores: int) -> int:
        """Rank count at ``cores``, refusing the degenerate configurations
        that used to be silently clamped to one rank."""
        if cores < self.workers_per_rank:
            raise ValueError(
                f"{cores} cores cannot host a {self.workers_per_rank}"
                f"-worker rank; the old behaviour silently clamped this to "
                f"1 rank, skewing the sweep (lower workers_per_rank or "
                f"raise the core count)")
        return cores // self.workers_per_rank

    def ideal_parallel_efficiency(self, cores: int,
                                  reference_cores: int = 64) -> float:
        """Parallel efficiency of the ideal CG at ``cores`` (paper: 80.17%)."""
        ranks = self._ranks_for(cores)
        ref_ranks = self._ranks_for(reference_cores)
        ref = self.iteration_time(ref_ranks, "ideal")
        cur = self.iteration_time(ranks, "ideal")
        return (ref / cur) / (cores / reference_cores)
