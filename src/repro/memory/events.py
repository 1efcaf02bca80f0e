"""Fault-event records produced by the memory manager.

These mirror the information the OS hands an application through a
SIGBUS signal after a DUE: which virtual address range (here: which
vector and page) was lost, and when.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Optional


class PageState(enum.Enum):
    """Lifecycle of a memory page under the DUE model."""

    #: Page holds valid data.
    VALID = "valid"
    #: A DUE was injected; contents are gone but the loss has not yet been
    #: discovered by an access (the page is "poisoned", Section 3.1).
    POISONED = "poisoned"
    #: The loss was discovered; the page was retired and re-mapped blank,
    #: and is waiting for a recovery method to repair its contents.
    LOST = "lost"


class PageFaultEvent(NamedTuple):
    """One detected-and-uncorrected error on one page of one vector.

    A tuple, like :class:`~repro.faults.injector.Injection`: every
    detected DUE makes one, so constructing it stays a single allocation.

    Attributes
    ----------
    vector:
        Name of the :class:`~repro.memory.pages.PagedVector` affected.
    page:
        Page index within that vector.
    inject_time:
        Simulated time at which the DUE occurred (page poisoned).
    detect_time:
        Simulated time at which the poisoned page was first accessed and
        the fault signalled to the application; ``None`` while latent.
    iteration:
        Solver iteration during which the fault was injected, if known.
    """

    vector: str
    page: int
    inject_time: float
    detect_time: Optional[float] = None
    iteration: Optional[int] = None

    def detected(self, time: float) -> "PageFaultEvent":
        """Return a copy stamped with its detection time."""
        return self._replace(detect_time=time)


@dataclass
class FaultLog:
    """Accumulates every fault event seen during a solve."""

    events: list = field(default_factory=list)

    def record(self, event: PageFaultEvent) -> None:
        self.events.append(event)

    def count(self) -> int:
        return len(self.events)

    def __len__(self) -> int:
        return len(self.events)
