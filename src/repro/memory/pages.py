"""Page-blocked vectors.

Every dynamic solver vector is viewed as a sequence of memory pages of
:data:`repro.config.PAGE_DOUBLES` double-precision values.  The paper's
recovery relations (Table 1) operate on exactly these blocks, so the
block decomposition used by the solver kernels, the fault injector and
the recovery code must agree; this module is that single source of truth.
"""

from __future__ import annotations

import numpy as np

from repro.config import PAGE_DOUBLES


def page_count(n: int, page_size: int = PAGE_DOUBLES) -> int:
    """Number of pages needed to hold ``n`` values (last page may be short)."""
    if n < 0:
        raise ValueError(f"vector length must be non-negative, got {n}")
    if page_size <= 0:
        raise ValueError(f"page size must be positive, got {page_size}")
    return -(-n // page_size)


def page_slice(page: int, n: int, page_size: int = PAGE_DOUBLES) -> slice:
    """Slice of the global index range covered by ``page``."""
    npages = page_count(n, page_size)
    if not 0 <= page < max(npages, 1):
        raise IndexError(f"page {page} out of range for {npages} pages")
    start = page * page_size
    stop = min(start + page_size, n)
    return slice(start, stop)


class PagedVector:
    """A dense ``float64`` vector partitioned into memory pages.

    The underlying storage is a contiguous NumPy array; pages are views
    into it, so page-wise kernels remain vectorised and copy-free
    (see the project coding guides on views versus copies).

    Parameters
    ----------
    data:
        Either an integer length (the vector is zero-initialised) or an
        array-like of values copied into the vector.
    name:
        Human-readable identifier used in fault reports.
    page_size:
        Values per page; defaults to the 4 KiB page of the paper.
    """

    __slots__ = ("name", "page_size", "_data", "_npages")

    def __init__(self, data, name: str = "", page_size: int = PAGE_DOUBLES):
        if page_size <= 0:
            raise ValueError(f"page size must be positive, got {page_size}")
        if isinstance(data, (int, np.integer)):
            self._data = np.zeros(int(data), dtype=np.float64)
        else:
            self._data = np.array(data, dtype=np.float64, copy=True).ravel()
        self.name = name
        self.page_size = int(page_size)
        self._npages = page_count(len(self._data), self.page_size)

    # ------------------------------------------------------------------
    # basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._data)

    @property
    def size(self) -> int:
        """Number of values stored."""
        return len(self._data)

    @property
    def num_pages(self) -> int:
        """Number of memory pages backing the vector."""
        return self._npages

    @property
    def array(self) -> np.ndarray:
        """The full underlying array (a view, not a copy)."""
        return self._data

    # ------------------------------------------------------------------
    # page access
    # ------------------------------------------------------------------
    def page_slice(self, page: int) -> slice:
        """Index slice covered by ``page``."""
        return page_slice(page, len(self._data), self.page_size)

    def page(self, page: int) -> np.ndarray:
        """View of the values in ``page``."""
        return self._data[self.page_slice(page)]

    def set_page(self, page: int, values) -> None:
        """Overwrite the contents of ``page``."""
        sl = self.page_slice(page)
        values = np.asarray(values, dtype=np.float64).ravel()
        expected = sl.stop - sl.start
        if values.size != expected:
            raise ValueError(
                f"page {page} of {self.name!r} holds {expected} values, "
                f"got {values.size}")
        self._data[sl] = values

    def zero_page(self, page: int) -> None:
        """Blank a page, as the OS does when re-mapping a retired page."""
        self._data[self.page_slice(page)] = 0.0

    # ------------------------------------------------------------------
    # whole-vector operations used by solvers
    # ------------------------------------------------------------------
    def fill_from(self, other) -> None:
        """Copy values from another vector/array of the same length."""
        src = other.array if isinstance(other, PagedVector) else np.asarray(other)
        if src.size != self._data.size:
            raise ValueError(
                f"length mismatch: {self._data.size} vs {src.size}")
        np.copyto(self._data, src)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PagedVector(name={self.name!r}, n={self.size}, "
                f"pages={self.num_pages}, page_size={self.page_size})")
