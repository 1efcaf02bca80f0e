"""Software-paged memory substrate.

The paper relies on hardware/OS machinery (ECC + machine-check exceptions
+ SIGBUS + ``mmap``) to (a) report that a 4 KiB page was lost and
(b) hand the application a fresh blank page at the same virtual address.
This package reproduces that *contract* in pure Python:

* :class:`~repro.memory.pages.PagedVector` partitions a ``float64``
  vector into pages of 512 values.
* :class:`~repro.memory.manager.MemoryManager` registers vectors and
  detects DUEs: each lost page is blanked (the re-mapped replacement
  page) and counted.
"""
