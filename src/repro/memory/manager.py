"""Memory manager: the OS layer of the paper's error model.

Sections 2.3, 3.1 and 5.3 of the paper: when an access detects a DUE,
the OS retires the page, re-maps a blank page at the same address and
tells the application which page it lost.  Exact forward recovery needs
only that identity — the solver hands each check point's detected pages
straight to its recovery strategy — so the manager keeps no per-page
state.  It

* holds the registry of protected (dynamic) vectors, whose pages, in
  registration order, are the universe every injection is drawn from;
* detects a batch of DUEs: each page is blanked and counted.

Constant data (matrix, right-hand side, preconditioner) is assumed to be
reloadable from a reliable backing store, exactly as the paper assumes,
so it is never registered here.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.memory.pages import PagedVector


class PageFaultEvent(NamedTuple):
    """One DUE on one page of one vector: injected, then detected."""

    vector: str
    page: int
    inject_time: float
    detect_time: Optional[float] = None
    iteration: Optional[int] = None


class MemoryManager:
    """Registry of protected paged vectors and count of detected DUEs."""

    def __init__(self) -> None:
        self._vectors: Dict[str, PagedVector] = {}
        self._pending: Dict[Tuple[str, int], PageFaultEvent] = {}
        self._faults = 0

    def register(self, vector: PagedVector) -> PagedVector:
        """Register a protected vector (must have a unique, non-empty name)."""
        if not vector.name:
            raise ValueError("protected vectors must be named")
        if vector.name in self._vectors:
            raise ValueError(f"vector {vector.name!r} already registered")
        self._vectors[vector.name] = vector
        return vector

    def vector(self, name: str) -> PagedVector:
        """Look up a registered vector by name."""
        try:
            return self._vectors[name]
        except KeyError:
            raise KeyError(f"no protected vector named {name!r} "
                           f"(known: {sorted(self._vectors)})") from None

    def page_universe(self) -> List[Tuple[str, int]]:
        """Every (vector, page) pair that a DUE could hit."""
        return [(name, p) for name, vec in self._vectors.items()
                for p in range(vec.num_pages)]

    def poison(self, name: str, page: int, time: float = 0.0,
               iteration: Optional[int] = None) -> PageFaultEvent:
        """Inject a latent DUE: nothing is signalled until an access."""
        self.vector(name).page_slice(page)  # the range check
        event = PageFaultEvent(name, page, time, iteration=iteration)
        self._pending[(name, page)] = event
        return event

    def touch(self, name: str, page: int,
              time: float) -> Optional[PageFaultEvent]:
        """Access a page: a latent DUE on it is detected now, blanking
        and counting the page.  Returns the event, or ``None``."""
        event = self._pending.pop((name, page), None)
        if event is None:
            return None
        self._vectors[name].zero_page(page)
        self._faults += 1
        return event._replace(detect_time=time)

    def detect_batch(self, injections: Iterable[Tuple[float, str, int]]
                     ) -> None:
        """Detect a batch of ``(inject_time, vector, page)`` DUEs, in
        order: each page is blanked, as the OS re-maps it, and counted.
        A page may appear more than once: each item is a DUE of its own.
        """
        for _, name, page in injections:
            self.vector(name).zero_page(page)
            self._faults += 1

    def fault_count(self) -> int:
        """Total detected faults so far."""
        return self._faults
