"""Analytic cost model for solver tasks.

The simulator needs a duration for every task.  We use a classic
roofline-style model: a task that performs ``f`` flops and moves ``b``
bytes takes ``max(f / flop_rate, b / mem_bandwidth)`` seconds, plus a
fixed per-task runtime overhead representing task creation, dependency
resolution and scheduling (the "runtime" state of Table 3).

The default constants are calibrated so that a CG iteration on the
paper's matrix sizes lands in the seconds-to-minutes range the paper
reports (1 to 100 s per solve, Section 5.3) and so that the fault-free
overheads of FEIR/AFEIR versus checkpointing reproduce the ordering of
Table 2.  Absolute values are not meant to match the Xeon E5-2670; only
ratios matter for the reproduction.

This module is the one owner of every simulated price: the solver's
tasks, the strategies' recovery work (read from the solve's
``SolverConfig.cost_model``), the checkpoint write and read, the
per-DUE fault service and the interconnect of the Figure 5 projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from repro.config import PAGE_BYTES, PAGE_DOUBLES

#: Extra simulated cost of servicing one page fault (signal delivery,
#: page re-mapping by the OS), charged per detected DUE.
FAULT_SERVICE_TIME = 0.5e-3


@dataclass(frozen=True)
class CostModel:
    """Timing constants for the discrete-event runtime.

    Attributes
    ----------
    flop_rate:
        Sustained floating-point rate of one worker, flop/s.
    mem_bandwidth:
        Sustained memory bandwidth available to one worker, bytes/s.
    task_overhead:
        Runtime cost of creating + scheduling one task, seconds.
    reduction_latency:
        Extra latency of a scalar (reduction) task, seconds.
    disk_bandwidth:
        Local-disk write/read bandwidth for checkpointing, bytes/s.
    disk_latency:
        Fixed latency of a disk operation, seconds.
    network_latency:
        One-way latency of an inter-rank message, seconds.
    network_bandwidth:
        Inter-rank link bandwidth, bytes/s.
    """

    flop_rate: float = 2.0e9
    #: Dense (BLAS-3 style) kernels such as the diagonal-block factorisation
    #: used by the recovery interpolation run much closer to peak.
    dense_flop_rate: float = 16.0e9
    mem_bandwidth: float = 8.0e9
    task_overhead: float = 8.0e-6
    reduction_latency: float = 2.0e-6
    disk_bandwidth: float = 2.0e8
    disk_latency: float = 5.0e-3
    network_latency: float = 1.5e-6
    network_bandwidth: float = 5.0e9

    # ------------------------------------------------------------------
    # generic kernels
    # ------------------------------------------------------------------
    def kernel_time(self, flops: float, bytes_moved: float) -> float:
        """Roofline time for a kernel, excluding task overhead."""
        if flops < 0 or bytes_moved < 0:
            raise ValueError("flops and bytes must be non-negative")
        return max(flops / self.flop_rate, bytes_moved / self.mem_bandwidth)

    # ------------------------------------------------------------------
    # solver building blocks (durations per *page-sized block* of rows)
    # ------------------------------------------------------------------
    def spmv(self, nnz: int, rows: int) -> float:
        """Sparse matrix-vector product over ``rows`` rows holding ``nnz``
        non-zeros (values + column indices in, the output rows out)."""
        return self.kernel_time(2.0 * nnz, 12.0 * nnz + 8.0 * rows)

    def spmv_block(self, nnz_block: int) -> float:
        """Sparse matrix-vector product restricted to one block of rows."""
        flops = 2.0 * nnz_block
        bytes_moved = nnz_block * (8 + 4) + PAGE_BYTES  # values+cols + output
        return self.kernel_time(flops, bytes_moved)

    def axpy_block(self, n_block: int = PAGE_DOUBLES) -> float:
        """``y <- a*x + y`` on one block."""
        flops = 2.0 * n_block
        bytes_moved = 3.0 * 8 * n_block
        return self.kernel_time(flops, bytes_moved)

    def scalar_task(self) -> float:
        """A reduction/scalar task combining per-block partial results."""
        return self.reduction_latency

    def block_solve(self, block_size: int = PAGE_DOUBLES,
                    factorized: bool = False) -> float:
        """Dense solve with one diagonal block (recovery interpolation).

        If the block factorisation is already available (e.g. cached by a
        block-Jacobi preconditioner, Section 5.1), only the triangular
        solves are charged; otherwise a dense factorisation is included.
        """
        b = float(block_size)
        solve_flops = 2.0 * b * b
        factor_flops = 0.0 if factorized else (b ** 3) / 3.0
        bytes_moved = 8.0 * b * b
        return max((solve_flops + factor_flops) / self.dense_flop_rate,
                   bytes_moved / self.mem_bandwidth)

    def recovery_check(self) -> float:
        """Cost of a recovery task that finds nothing to do (bitmask scan)."""
        return 1.0e-6

    # ------------------------------------------------------------------
    # checkpoint / communication
    # ------------------------------------------------------------------
    def checkpoint_write(self, num_bytes: float) -> float:
        """Write a checkpoint of ``num_bytes`` to local disk."""
        return self.disk_latency + num_bytes / self.disk_bandwidth

    def checkpoint_read(self, num_bytes: float) -> float:
        """Read a checkpoint of ``num_bytes`` back from local disk."""
        return self.disk_latency + num_bytes / self.disk_bandwidth

    def message(self, num_bytes: float) -> float:
        """Point-to-point message between two ranks."""
        return self.network_latency + num_bytes / self.network_bandwidth

    def halo_exchange(self, sizes: Sequence[int]) -> float:
        """Time for one rank to exchange its halo with its neighbours.

        ``sizes`` are the per-neighbour entry counts (straight from
        :meth:`~repro.distributed.partition.RankPartition.halo_sizes`).
        Messages to different neighbours overlap (they use different
        links and are posted together), so the exchange costs a single
        message of the *largest* per-neighbour share — not one
        serialised message per neighbour.
        """
        sizes = [int(s) for s in sizes]
        if any(s < 0 for s in sizes):
            raise ValueError("per-neighbour halo sizes must be >= 0")
        largest = max(sizes, default=0)
        return self.message(8.0 * largest) if largest else 0.0

    def allreduce(self, num_bytes: float, num_ranks: int) -> float:
        """Tree allreduce of ``num_bytes`` across ``num_ranks`` ranks."""
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be >= 0, got {num_bytes}")
        if num_ranks <= 1:
            return 0.0
        stages = math.ceil(math.log2(num_ranks))
        return stages * self.message(num_bytes)

    # ------------------------------------------------------------------
    def scaled(self, **overrides) -> "CostModel":
        """Copy of the model with some constants replaced."""
        return replace(self, **overrides)


#: Cost model used by default across experiments.
DEFAULT_COST_MODEL = CostModel()
