"""Pluggable trial executors: serial, process pool, chunked batches.

All executors implement the same contract: ``run(fn, items)`` yields
``fn(item)`` results *as they complete* (any order); the engine reorders
by trial index before aggregating, so every executor produces identical
campaign statistics.  Three are provided:

* :class:`SerialExecutor` — in-process loop; zero overhead, the
  reference for the equivalence tests.
* :class:`ProcessPoolExecutor` — one task per trial on a
  ``concurrent.futures`` process pool; best when trials are slow
  relative to pickling.  It is the one owner of that pool: ``run()``
  opens and closes one per campaign, ``open()``/``submit()``/``close()``
  keep one alive across campaigns (the daemon in ``repro.service``).
* :class:`ChunkedExecutor` — the same class fed batches of trials per
  pool task; amortises process round-trips when trials are short and
  numerous.
"""

from __future__ import annotations

import concurrent.futures
import functools
import os
from typing import Callable, Iterator, List, Optional, Sequence, TypeVar

from repro.config import resolve_worker_count

T = TypeVar("T")
R = TypeVar("R")

#: Registry of executor names understood by :func:`make_executor`.
EXECUTOR_NAMES = ("serial", "process", "chunked")


class CampaignInterrupted(RuntimeError):
    """A campaign was aborted mid-run (trip hook, operator interrupt).

    Carries the number of trials executed before the abort.  Workers
    persist trials to the campaign store as each one finishes, so
    everything executed before the interruption survives it — a re-run
    with the same store resumes from the last persisted trial.
    """

    def __init__(self, executed: int):
        super().__init__(f"campaign interrupted after {executed} "
                         f"executed trial(s)")
        self.executed = executed


class TripAfter:
    """Trip hook aborting a campaign after ``limit`` executed trials.

    Pass as ``run_campaign(..., trip=TripAfter(k))`` to simulate a
    mid-campaign crash deterministically: the engine calls the hook
    after every *executed* (non-cached) trial, and the hook raises
    :class:`CampaignInterrupted` once the limit is reached.  The
    interruption/resume tests use this to assert that a killed-and-
    resumed campaign reproduces an uninterrupted run's fingerprint.
    """

    def __init__(self, limit: int):
        if limit <= 0:
            raise ValueError(f"trip limit must be positive, got {limit}")
        self.limit = limit

    def __call__(self, executed: int) -> None:
        if executed >= self.limit:
            raise CampaignInterrupted(executed)


class CampaignExecutor:
    """Base class: maps a function over items, yielding unordered results."""

    name = "base"

    def run(self, fn: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class SerialExecutor(CampaignExecutor):
    """Run every trial in-process, in submission order."""

    name = "serial"

    def run(self, fn: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
        for item in items:
            yield fn(item)


class ProcessPoolExecutor(CampaignExecutor):
    """One pool task per trial, on the one ``concurrent.futures`` process
    pool this module constructs.

    Un-opened, :meth:`run` opens a pool sized to the work, drains it and
    closes it (the offline campaigns).  Opened — :meth:`open` or a
    ``with`` block — the same children serve every :meth:`run` and
    :meth:`submit` until :meth:`close` (the campaign daemon).

    Worker counts are validated (explicit non-positive requests raise)
    and capped by the ``REPRO_MAX_WORKERS`` environment override; a pool
    that ``run()`` opens for itself never exceeds the number of tasks,
    so short campaigns do not oversubscribe CI runners.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None):
        self.max_workers = resolve_worker_count(max_workers)
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None

    def describe(self) -> str:
        return f"{self.name}({self.max_workers} workers)"

    # -- pool lifetime -------------------------------------------------
    def open(self, workers: Optional[int] = None,
             mp_context=None) -> "ProcessPoolExecutor":
        """Start ``workers`` children (default ``max_workers``) and wait
        until they answer, so the caller decides *when* the processes
        are created: under the platform's default start method
        (``mp_context=None``) every child exists when this returns.
        """
        if self._pool is not None:
            raise RuntimeError(f"{self.describe()} is already open")
        workers = workers or self.max_workers
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=mp_context)
        try:
            for ready in [pool.submit(os.getpid) for _ in range(workers)]:
                ready.result()
        except BaseException:
            pool.shutdown(wait=True, cancel_futures=True)
            raise
        self._pool = pool
        return self

    def close(self) -> None:
        """Cancel what has not started, wait for what has, join and reap
        every child.  Closing a closed (or never opened) executor is a
        no-op."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ProcessPoolExecutor":
        return self.open()

    def __exit__(self, *exc) -> None:
        self.close()

    def pids(self) -> List[int]:
        """Pids of the pool's live children (empty when not open)."""
        # The stdlib pool has no public view of its children.
        processes = getattr(self._pool, "_processes", None) or {}
        return sorted(pid for pid, process in list(processes.items())
                      if process.is_alive())

    # -- work ----------------------------------------------------------
    def submit(self, fn: Callable[[T], R], item: T
               ) -> "concurrent.futures.Future[R]":
        """Queue ``fn(item)`` on the open pool."""
        if self._pool is None:
            raise RuntimeError(f"{self.describe()} is not open")
        return self._pool.submit(fn, item)

    def run(self, fn: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
        if not items:
            return
        own_pool = self._pool is None
        if own_pool:
            workers = min(self.max_workers, len(items))
            if workers == 1:
                # A one-worker pool only adds IPC; keep semantics, skip cost.
                yield from SerialExecutor().run(fn, items)
                return
            self.open(workers)
        try:
            yield from _drain([self.submit(fn, item) for item in items])
        finally:
            if own_pool:
                self.close()


def _drain(futures) -> Iterator:
    """Yield future results as completed; on any error cancel what has
    not started yet so a failing trial surfaces immediately instead of
    after the rest of the campaign."""
    try:
        for future in concurrent.futures.as_completed(futures):
            yield future.result()
    except BaseException:
        for pending in futures:
            pending.cancel()
        raise


def _run_chunk(fn: Callable[[T], R], chunk: List[T]) -> List[R]:
    """Module-level so chunk tasks stay picklable."""
    return [fn(item) for item in chunk]


class ChunkedExecutor(ProcessPoolExecutor):
    """The same pool fed with fixed-size batches of trials per task."""

    name = "chunked"

    def __init__(self, max_workers: Optional[int] = None,
                 chunk_size: Optional[int] = None):
        super().__init__(max_workers)
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError(f"chunk size must be positive, got {chunk_size}")
        self.chunk_size = chunk_size

    def describe(self) -> str:
        return (f"{self.name}({self.max_workers} workers, "
                f"chunk={self.chunk_size or 'auto'})")

    def _chunks(self, items: Sequence[T]) -> List[List[T]]:
        size = self.chunk_size
        if size is None:
            # ~4 chunks per worker balances load without per-trial IPC.
            size = max(1, len(items) // (4 * self.max_workers) or 1)
        return [list(items[i:i + size]) for i in range(0, len(items), size)]

    def run(self, fn: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
        for batch in super().run(functools.partial(_run_chunk, fn),
                                 self._chunks(items)):
            yield from batch


def make_executor(name: str, max_workers: Optional[int] = None,
                  chunk_size: Optional[int] = None) -> CampaignExecutor:
    """Build an executor from its registry name."""
    key = name.strip().lower()
    if key == "serial":
        return SerialExecutor()
    if key in ("process", "pool", "process-pool"):
        return ProcessPoolExecutor(max_workers=max_workers)
    if key in ("chunked", "chunk", "batch"):
        return ChunkedExecutor(max_workers=max_workers, chunk_size=chunk_size)
    raise ValueError(f"unknown executor {name!r}; "
                     f"known executors: {', '.join(EXECUTOR_NAMES)}")
