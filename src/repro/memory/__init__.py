"""Software-paged memory substrate.

The paper relies on hardware/OS machinery (ECC + machine-check exceptions
+ SIGBUS + ``mmap``) to (a) report that a 4 KiB page was lost and
(b) hand the application a fresh blank page at the same virtual address.
This package reproduces that *contract* in pure Python:

* :class:`~repro.memory.pages.PagedVector` partitions a ``float64``
  vector into pages of 512 values.
* :class:`~repro.memory.manager.MemoryManager` registers vectors,
  poisons pages (the injected DUE), retires and re-maps them (blank
  replacement page) and records fault events.
"""

from repro.memory.events import PageFaultEvent, PageState
from repro.memory.manager import MemoryManager
from repro.memory.pages import PagedVector, page_count, page_of_index, page_slice

__all__ = [
    "MemoryManager",
    "PageFaultEvent",
    "PageState",
    "PagedVector",
    "page_count",
    "page_of_index",
    "page_slice",
]
