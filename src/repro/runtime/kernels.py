"""Kernel-engine protocol: who executes the CG's numerical kernels.

The :class:`~repro.solvers.resilient_cg.ResilientCG` iteration structure
is fixed by the paper (Figure 1), but *where* its kernels run is not:

* :class:`LocalKernelEngine` — the historical single-address-space path:
  every spmv/axpy/dot is one vectorised NumPy call on the full arrays.
* :class:`~repro.distributed.ranks.RankKernelEngine` — the rank-parallel
  path of Section 3.4: each kernel is strip-partitioned over N rank
  workers that exchange halos and tree-allreduce the dot products for
  real (shared-memory message queues standing in for MPI).

Both implement the :class:`KernelEngine` contract, and both are
*bitwise* equivalent, which is what makes the rank runtime testable
against the single-rank solver: every reduction is defined page-wise
(:func:`paged_dot`), so the result does not depend on how many ranks
contributed partial sums — the classic fixed-order reproducible
reduction used by bitwise-reproducible MPI collectives.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, Iterable, Set

import numpy as np

from repro.memory.pages import page_count

if TYPE_CHECKING:
    from repro.runtime.runtime import RuntimeSpec


def page_partials(u: np.ndarray, v: np.ndarray, page_size: int) -> np.ndarray:
    """Per-page partial dot products of two page-aligned array slices.

    ``u`` and ``v`` must start on a page boundary; only the final page
    may be ragged.  The per-page reduction is NumPy's pairwise sum over
    exactly one page, so the partial of a page depends only on that
    page's values — never on which rank's strip the page sits in.
    """
    n = u.shape[0]
    if v.shape[0] != n:
        raise ValueError(f"length mismatch: {n} vs {v.shape[0]}")
    full = (n // page_size) * page_size
    if full:
        prod = (u[:full].reshape(-1, page_size)
                * v[:full].reshape(-1, page_size))
        parts = np.add.reduce(prod, axis=1)  # repro-lint: allow[paged-reduction] this is the page-order primitive itself
    else:
        parts = np.zeros(0, dtype=np.float64)
    if full < n:
        tail = np.add.reduce(u[full:] * v[full:])  # repro-lint: allow[paged-reduction] this is the page-order primitive itself
        parts = np.concatenate([parts, [tail]])
    return parts


def reduce_partials(parts: np.ndarray,
                    skip_pages: Iterable[int] = ()) -> float:
    """Combine per-page partials into the scalar the solver uses.

    Skipped pages (the Section 3.3.2 protocol for contributions of lost
    pages) are zeroed *before* the reduction, so skipping is exact
    rather than a subtract-after-the-fact cancellation.  The reduction
    itself is a fixed-order NumPy sum over the page axis — identical no
    matter who computed the partials.
    """
    skip = [p for p in skip_pages if 0 <= p < parts.shape[0]]
    if skip:
        parts = parts.copy()
        parts[skip] = 0.0
    return float(np.add.reduce(parts))  # repro-lint: allow[paged-reduction] fixed-order combine over the page axis, the sanctioned primitive


def paged_dot(u: np.ndarray, v: np.ndarray, page_size: int,
              skip_pages: Iterable[int] = ()) -> float:
    """Deterministic page-blocked dot product (optionally masked)."""
    return reduce_partials(page_partials(u, v, page_size), skip_pages)


class KernelEngine(abc.ABC):
    """Executes the resilient CG's per-iteration kernels.

    The solver owns the iteration structure, the simulated timeline and
    all fault bookkeeping; the engine owns *data placement and
    movement*: sparse matrix-vector products, the masked vector updates,
    the (reproducible) dot-product reductions and the dispatch of
    recovery work to whoever owns the corrupted page.
    """

    name: str = "abstract"
    #: Number of distributed ranks executing kernels (1 = single rank).
    ranks: int = 1

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def dot(self, u: np.ndarray, v: np.ndarray,
            skip_pages: Set[int] = frozenset()) -> float:
        """Masked dot product, reduced in fixed page order."""

    @abc.abstractmethod
    def spmv(self, d: np.ndarray, out: np.ndarray) -> None:
        """``out <- A d`` (rank engines exchange the halo of ``d``)."""

    @abc.abstractmethod
    def update_direction(self, d_cur: np.ndarray, z: np.ndarray,
                         beta: float, d_prev: np.ndarray) -> None:
        """``d_cur <- z + beta * d_prev`` (double-buffered d update)."""

    @abc.abstractmethod
    def axpy(self, y: np.ndarray, a: float, v: np.ndarray,
             skip_pages: Set[int] = frozenset()) -> None:
        """``y += a * v`` skipping the pages whose update is deferred."""

    @abc.abstractmethod
    def residual(self, x: np.ndarray, b: np.ndarray,
                 out: np.ndarray) -> None:
        """``out <- b - A x`` (restart/rollback resynchronisation)."""

    @abc.abstractmethod
    def run_on_owner(self, page: int, fn: Callable[[], object]) -> object:
        """Execute recovery work on the rank owning ``page``.

        Single-address-space engines just call ``fn``; the rank runtime
        ships it to the owner's worker, the paper's locality rule for
        FEIR/AFEIR block solves (the owner holds the rows of ``A`` and
        the vector strips the relation reads).
        """

    # ------------------------------------------------------------------
    def page_owner(self, page: int) -> int:
        """Rank owning memory page ``page`` (0 in a single address space)."""
        return 0

    def run_on_rank(self, rank: int, fn: Callable[[], object]) -> object:
        """Execute ``fn`` on a specific rank's worker *without* counting
        it as a recovery dispatch (probe work of the wall-clock
        re-enactment); single-address-space engines run it inline."""
        return fn()

    def halo_exchange(self, d: np.ndarray) -> object:
        """Re-enact the halo exchange of ``d`` (read-only, bitwise
        neutral); a no-op in a single address space.  The ranks
        placement really moves the halo of ``d`` over the rank channels
        so the exchange has a measurable wall interval."""
        return None

    def comm_stats(self):
        """Measured communication statistics, or ``None`` when the
        engine performs no inter-rank communication."""
        return None

    def close(self) -> None:
        """Release real resources (rank worker threads); idempotent."""


class LocalKernelEngine(KernelEngine):
    """Single-address-space kernels: one NumPy call per operation.

    The dot products go through the same page-partitioned fixed-order
    reduction the rank runtime uses, so a single-rank solve and an
    N-rank solve of the same problem produce bit-identical scalars.
    """

    name = "local"
    ranks = 1

    def __init__(self, A, n: int, page_size: int):
        self.A = A
        self.n = int(n)
        self.page_size = int(page_size)
        self.num_pages = page_count(self.n, self.page_size)

    def dot(self, u: np.ndarray, v: np.ndarray,
            skip_pages: Set[int] = frozenset()) -> float:
        return paged_dot(u, v, self.page_size, skip_pages)

    def spmv(self, d: np.ndarray, out: np.ndarray) -> None:
        np.copyto(out, self.A @ d)

    def update_direction(self, d_cur: np.ndarray, z: np.ndarray,
                         beta: float, d_prev: np.ndarray) -> None:
        np.copyto(d_cur, z + beta * d_prev)

    def axpy(self, y: np.ndarray, a: float, v: np.ndarray,
             skip_pages: Set[int] = frozenset()) -> None:
        if not skip_pages:
            y += a * v
            return
        psize = self.page_size
        keep = np.ones(self.n, dtype=bool)
        for page in skip_pages:
            start = page * psize
            stop = min(start + psize, self.n)
            if start < self.n:
                keep[start:stop] = False
        y[keep] += a * v[keep]

    def residual(self, x: np.ndarray, b: np.ndarray,
                 out: np.ndarray) -> None:
        np.copyto(out, b - self.A @ x)

    def run_on_owner(self, page: int, fn: Callable[[], object]) -> object:
        return fn()


def make_kernel_engine(blocked, spec: "RuntimeSpec") -> KernelEngine:
    """The kernel engine of ``spec``'s placement axis, bound to ``blocked``.

    ``spec`` is already validated (:class:`~repro.runtime.runtime.RuntimeSpec`
    rejects ``placement="local"`` with ``ranks > 1``); ``"ranks"`` builds
    the rank runtime even for a single strip.
    """
    if spec.placement == "local":
        return LocalKernelEngine(blocked.A, blocked.n, blocked.page_size)
    from repro.distributed.ranks import RankKernelEngine
    return RankKernelEngine(blocked, spec.ranks)
