"""Memory manager: the OS/runtime layer of the paper's error model.

Responsibilities reproduced from Sections 2.1 and 5.3 of the paper:

* hold the registry of protected (dynamic) vectors,
* *poison* a page when the fault injector fires (the DUE itself — data is
  gone, but nothing is signalled yet),
* *detect* the fault when a poisoned page is accessed: retire the page,
  re-map a blank page at the same "address" (zero the contents), record a
  :class:`~repro.memory.events.PageFaultEvent`, and mark the page as lost
  so a recovery method can repair it,
* expose per-vector poison/lost state to the solver kernels so they can
  skip contributions (Section 3.3.2).

Constant data (matrix, right-hand side, preconditioner) is assumed to be
reloadable from a reliable backing store, exactly as the paper assumes,
so it is never registered here.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.memory.events import FaultLog, PageFaultEvent, PageState
from repro.memory.pages import PagedVector


class MemoryManager:
    """Registry and fault bookkeeping for protected paged vectors."""

    def __init__(self) -> None:
        self._vectors: Dict[str, PagedVector] = {}
        self._state: Dict[str, List[PageState]] = {}
        self._pending: Dict[Tuple[str, int], PageFaultEvent] = {}
        self.log = FaultLog()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, vector: PagedVector) -> PagedVector:
        """Register a protected vector (must have a unique, non-empty name)."""
        if not vector.name:
            raise ValueError("protected vectors must be named")
        if vector.name in self._vectors:
            raise ValueError(f"vector {vector.name!r} already registered")
        self._vectors[vector.name] = vector
        self._state[vector.name] = [PageState.VALID] * vector.num_pages
        return vector

    def vector(self, name: str) -> PagedVector:
        """Look up a registered vector by name."""
        try:
            return self._vectors[name]
        except KeyError:
            raise KeyError(f"no protected vector named {name!r} "
                           f"(known: {sorted(self._vectors)})") from None

    def total_pages(self) -> int:
        """Total number of protected pages across all vectors."""
        return sum(v.num_pages for v in self._vectors.values())

    def page_universe(self) -> List[Tuple[str, int]]:
        """Every (vector, page) pair that a DUE could hit."""
        out: List[Tuple[str, int]] = []
        for name, vec in self._vectors.items():
            out.extend((name, p) for p in range(vec.num_pages))
        return out

    # ------------------------------------------------------------------
    # fault lifecycle
    # ------------------------------------------------------------------
    def poison(self, name: str, page: int, time: float = 0.0,
               iteration: Optional[int] = None) -> PageFaultEvent:
        """Inject a DUE: the page's contents are lost as of ``time``.

        Nothing is signalled to the application until the page is
        accessed (see :meth:`touch`), matching memory-scrubbing
        behaviour described in Section 3.1.
        """
        vec = self.vector(name)
        if not 0 <= page < vec.num_pages:
            raise IndexError(f"page {page} out of range for vector {name!r} "
                             f"({vec.num_pages} pages)")
        event = PageFaultEvent(vector=name, page=page, inject_time=time,
                               iteration=iteration)
        self._state[name][page] = PageState.POISONED
        self._pending[(name, page)] = event
        return event

    def touch(self, name: str, page: int, time: float) -> Optional[PageFaultEvent]:
        """Access a page; if it is poisoned, the DUE is detected now.

        Detection retires the page: a blank page is re-mapped in its
        place (contents zeroed) and the page transitions to ``LOST``.
        Returns the detection event, or ``None`` if the page was fine.
        """
        state = self.state(name, page)
        if state is PageState.POISONED:
            vec = self._vectors[name]
            vec.zero_page(page)
            event = self._pending.pop((name, page)).detected(time)
            self._state[name][page] = PageState.LOST
            self.log.record(event)
            return event
        return None

    def detect_batch(self, injections: Iterable[Tuple[float, str, int]],
                     time: float, iteration: Optional[int] = None) -> None:
        """Inject a batch of DUEs that an access at ``time`` detects.

        Each ``(inject_time, vector, page)`` item, in order, has the effect
        of :meth:`poison` at ``inject_time`` followed by :meth:`touch` at
        ``time`` — which always detects, so the page is blanked, becomes
        ``LOST`` and its event is logged.  A page may appear more than
        once: each item is a DUE of its own.
        """
        events = self.log.events
        for inject_time, name, page in injections:
            vec = self.vector(name)
            if not 0 <= page < vec.num_pages:
                raise IndexError(f"page {page} out of range for vector "
                                 f"{name!r} ({vec.num_pages} pages)")
            vec.zero_page(page)
            self._pending.pop((name, page), None)
            self._state[name][page] = PageState.LOST
            events.append(PageFaultEvent(name, page, inject_time, time,
                                         iteration))

    def mark_recovered(self, name: str, page: int) -> None:
        """A recovery method has restored this page's contents."""
        if self.state(name, page) is PageState.POISONED:
            # Recovering a still-poisoned page implies it was discovered
            # through the recovery scan itself: retire it first.
            self._vectors[name].zero_page(page)
            event = self._pending.pop((name, page))
            self.log.record(event)
        self._state[name][page] = PageState.VALID

    def overwrite_vector(self, name: str) -> None:
        """The solver fully overwrote every page of the vector: any latent
        poison is cured and every page is valid again.

        This mirrors the OS hope that a poisoned page "will be freed or
        overwritten completely" before being read (Section 3.1).
        """
        states = self._state[name]
        for key in [key for key in self._pending if key[0] == name]:
            del self._pending[key]
        states[:] = [PageState.VALID] * len(states)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def state(self, name: str, page: int) -> PageState:
        """Current lifecycle state of a page."""
        vec = self.vector(name)
        if not 0 <= page < vec.num_pages:
            raise IndexError(f"page {page} out of range for vector {name!r}")
        return self._state[name][page]

    def lost_pages(self, name: Optional[str] = None) -> List[Tuple[str, int]]:
        """(vector, page) pairs in POISONED or LOST state."""
        names: Iterable[str] = [name] if name is not None else self._vectors
        out: List[Tuple[str, int]] = []
        for vname in names:
            states = self._state[vname]
            # Count at C speed; walk only a vector with a non-valid page.
            if states.count(PageState.VALID) != len(states):
                out.extend((vname, p) for p, s in enumerate(states)
                           if s is not PageState.VALID)
        return out

    def has_faults(self) -> bool:
        """True if any protected page is currently poisoned or lost."""
        return any(states.count(PageState.VALID) != len(states)
                   for states in self._state.values())

    def fault_count(self) -> int:
        """Total detected faults so far."""
        return self.log.count()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MemoryManager(vectors={len(self._vectors)}, "
                f"pages={self.total_pages()}, faults={self.fault_count()})")
