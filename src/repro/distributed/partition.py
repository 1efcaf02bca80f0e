"""Row-wise strip partitioning of the linear system across ranks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class RankPartition:
    """Rows owned by one rank and the halo it needs from its neighbours."""

    rank: int
    row_start: int
    row_stop: int
    #: Number of remote vector entries this rank reads during A*d.
    halo_size: int
    #: Ranks this one exchanges halos with.
    neighbours: Tuple[int, ...]
    #: Per-neighbour halo breakdown: ``(neighbour, entries read from it)``,
    #: in neighbour order.  Sums to ``halo_size``.
    halo_by_neighbour: Tuple[Tuple[int, int], ...]
    #: Nonzeros in the local block of rows.
    local_nnz: int

    def halo_sizes(self) -> Tuple[int, ...]:
        """Entries read from each neighbour, in ``neighbours`` order
        (the per-neighbour shares the communication model charges)."""
        return tuple(size for _, size in self.halo_by_neighbour)


class StripPartition:
    """Partition a sparse matrix into contiguous row strips, one per rank.

    The halo of a rank is the set of column indices referenced by its rows
    that fall outside its own row range — exactly the entries of the
    search direction ``p`` that the paper's "exchange task" communicates
    every iteration (Section 3.4).

    With ``align > 1`` every strip boundary is snapped to a multiple of
    ``align`` (the rank runtime aligns strips to memory pages so each
    page — the unit of DUE loss and of the reproducible reductions — has
    exactly one owning rank).
    """

    def __init__(self, A: "sp.spmatrix", num_ranks: int, align: int = 1):
        if num_ranks <= 0:
            raise ValueError(f"num_ranks must be positive, got {num_ranks}")
        if align <= 0:
            raise ValueError(f"align must be positive, got {align}")
        if not isinstance(A, sp.spmatrix):
            try:
                # SparseOperator and array-likes share the CSR triplet.
                A = sp.csr_matrix((A.data, A.indices, A.indptr),
                                  shape=A.shape)
            except AttributeError:
                A = sp.csr_matrix(A)
        A = sp.csr_matrix(A)
        n = A.shape[0]
        if num_ranks > n:
            raise ValueError(f"cannot split {n} rows over {num_ranks} ranks")
        self.A = A
        self.n = n
        self.num_ranks = num_ranks
        self.align = int(align)
        bounds = self._strip_bounds(n, num_ranks, self.align)
        self._bounds = bounds
        self._partitions: List[RankPartition] = []
        self._halo_indices: List[Dict[int, np.ndarray]] = []
        for rank in range(num_ranks):
            start, stop = int(bounds[rank]), int(bounds[rank + 1])
            p0, p1 = int(A.indptr[start]), int(A.indptr[stop])
            cols = A.indices[p0:p1]
            remote = np.unique(cols[(cols < start) | (cols >= stop)])
            owners = np.searchsorted(bounds, remote, side="right") - 1
            by_neighbour: Dict[int, np.ndarray] = {
                int(r): remote[owners == r] for r in np.unique(owners)}
            neighbour_ranks = tuple(sorted(by_neighbour))
            self._halo_indices.append(by_neighbour)
            self._partitions.append(RankPartition(
                rank=rank, row_start=start, row_stop=stop,
                halo_size=int(remote.size),
                neighbours=neighbour_ranks,
                halo_by_neighbour=tuple((r, int(by_neighbour[r].size))
                                        for r in neighbour_ranks),
                local_nnz=p1 - p0))

    @staticmethod
    def _strip_bounds(n: int, num_ranks: int, align: int) -> np.ndarray:
        """Contiguous, validated strip bounds (aligned when requested).

        A truncated ``linspace`` is only *accidentally* non-empty; after
        snapping to ``align`` it genuinely can collapse a strip, so the
        bounds are validated explicitly instead of trusting the rounding.
        """
        if align > 1:
            units = -(-n // align)          # ceil: ragged final unit allowed
            if units < num_ranks:
                raise ValueError(
                    f"cannot split {n} rows into {num_ranks} strips aligned "
                    f"to {align}: only {units} aligned unit(s) available "
                    f"(reduce num_ranks or the alignment/page size)")
            unit_bounds = np.linspace(0, units, num_ranks + 1).astype(int)
            bounds = np.minimum(unit_bounds * align, n)
        else:
            bounds = np.linspace(0, n, num_ranks + 1).astype(int)
        if bounds[0] != 0 or bounds[-1] != n:
            raise ValueError(
                f"strip bounds {bounds.tolist()} do not cover [0, {n})")
        empty = np.flatnonzero(np.diff(bounds) <= 0)
        if empty.size:
            raise ValueError(
                f"strip partition of {n} rows over {num_ranks} ranks "
                f"(align={align}) produces empty strip(s) for rank(s) "
                f"{empty.tolist()}; use fewer ranks")
        return bounds

    # ------------------------------------------------------------------
    def partition(self, rank: int) -> RankPartition:
        if not 0 <= rank < self.num_ranks:
            raise IndexError(f"rank {rank} out of range")
        return self._partitions[rank]

    @property
    def partitions(self) -> List[RankPartition]:
        return list(self._partitions)

    @property
    def bounds(self) -> np.ndarray:
        """Strip boundaries: rank ``r`` owns rows ``[bounds[r], bounds[r+1])``."""
        return self._bounds.copy()

    def owner_of_row(self, row: int) -> int:
        """Rank owning global row ``row``."""
        if not 0 <= row < self.n:
            raise IndexError(f"row {row} out of range for n={self.n}")
        return int(np.searchsorted(self._bounds, row, side="right") - 1)

    def halo_indices(self, rank: int) -> Dict[int, np.ndarray]:
        """Global column indices ``rank`` must receive, per neighbour.

        The arrays are sorted ascending; neighbour ``j``'s array is
        exactly the payload of the ``j -> rank`` halo message.
        """
        if not 0 <= rank < self.num_ranks:
            raise IndexError(f"rank {rank} out of range")
        return {r: idx.copy() for r, idx in self._halo_indices[rank].items()}

    def send_plan(self, rank: int) -> Dict[int, np.ndarray]:
        """Global indices ``rank`` must send, per destination rank.

        The mirror of :meth:`halo_indices`: destination ``j`` receives the
        entries of ``rank``'s strip that appear in ``j``'s halo.
        """
        plan: Dict[int, np.ndarray] = {}
        for other in range(self.num_ranks):
            if other == rank:
                continue
            idx = self._halo_indices[other].get(rank)
            if idx is not None and idx.size:
                plan[other] = idx.copy()
        return plan
