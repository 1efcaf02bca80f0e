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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.config import PAGE_BYTES, PAGE_DOUBLES


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

    def allreduce(self, num_bytes: float, num_ranks: int) -> float:
        """Tree allreduce across ``num_ranks`` ranks."""
        if num_ranks <= 1:
            return 0.0
        import math
        stages = math.ceil(math.log2(num_ranks))
        return stages * self.message(num_bytes)

    # ------------------------------------------------------------------
    def scaled(self, **overrides) -> "CostModel":
        """Copy of the model with some constants replaced."""
        return replace(self, **overrides)


#: Cost model used by default across experiments.
DEFAULT_COST_MODEL = CostModel()
