"""Pluggable trial executors: serial and process pool.

Both implement the same contract: ``run(fn, items)`` yields
``fn(item)`` results *as they complete* (any order); the engine reorders
by trial index before aggregating, so every executor produces identical
campaign statistics:

* :class:`SerialExecutor` — in-process loop; zero overhead, the
  reference for the equivalence tests.
* :class:`ProcessPoolExecutor` — one task per trial on a
  ``concurrent.futures`` process pool; best when trials are slow
  relative to pickling.  It is the one owner of that pool: ``run()``
  opens and closes one per campaign, ``open()``/``submit()``/``close()``
  keep one alive across campaigns (the daemon in ``repro.service``).

A pool survives its children.  A child that exits or is killed breaks
the stdlib pool as a whole (``BrokenProcessPool`` on every future in
flight); only this module sees that exception.  ``run()`` reopens the
pool — once per break — and resubmits what was in flight through
``submit()``; the caller's loop notices nothing but the ``deaths`` /
``resubmitted`` counters.  Items must be safe to run twice, which
campaign trials are (pure functions of their spec, read back from the
store by the runner before they are run).  A
pool that keeps breaking with nothing completing in between gives up
with :class:`WorkerLost` after :data:`MAX_RESUBMITS` resubmissions.
The children do not survive the pool's owner either: each watches its
parent and exits once it is gone, ``kill -9`` included.

A run puts all its items in the pool at once (the pool's call queue
then always holds a child's next item), so ending one early is a
wind-down, not a missing ``submit``: ``run(fn, items, stop=event)``
cancels, once ``event`` is set after a completion, what no child holds
yet, still yields what one does hold, and resubmits nothing.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterator, List, Optional, Sequence, TypeVar

from repro.config import resolve_worker_count
from repro.sanitize import make_lock

T = TypeVar("T")
R = TypeVar("R")

#: Registry of executor names understood by :func:`make_executor`.
EXECUTOR_NAMES = ("serial", "process")

#: How often in a row — with no result in between — ``run()`` resubmits
#: what a broken pool lost before it gives up with :class:`WorkerLost`.
MAX_RESUBMITS = 3

#: How often a pool child checks that its pool's owner is alive (s).
PARENT_POLL_S = 0.2


class WorkerLost(RuntimeError):
    """The pool broke under ``item`` ``losses`` times in a row, one more
    than ``run()`` resubmits."""

    def __init__(self, item, losses: int):
        super().__init__(f"{item} lost its worker {losses} times; giving up")
        self.item = item
        self.losses = losses


class CampaignExecutor:
    """Base class: maps a function over items, yielding unordered results."""

    name = "base"

    #: Pool breaks survived and items resubmitted after them: counters
    #: to read, which only an executor with workers ever moves.
    deaths = resubmitted = 0

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
    :meth:`submit` until :meth:`close` (the daemon).  A pool has one
    caller at a time; only :meth:`close` may come from another thread.

    Worker counts are validated (explicit non-positive requests raise)
    and capped by the ``REPRO_MAX_WORKERS`` environment override; a pool
    that ``run()`` opens for itself never exceeds the number of tasks,
    so short campaigns do not oversubscribe CI runners.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None):
        self.max_workers = resolve_worker_count(max_workers)
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._workers = 0
        self._lock = make_lock("ProcessPoolExecutor.lock")

    def describe(self) -> str:
        return f"{self.name}({self.max_workers} workers)"

    # -- pool lifetime -------------------------------------------------
    def open(self, workers: Optional[int] = None) -> "ProcessPoolExecutor":
        """Start ``workers`` children (default ``max_workers``) under the
        platform's default start method and wait until they answer: the
        caller decides *when* processes are created."""
        with self._lock:
            if self._pool is not None:
                raise RuntimeError(f"{self.describe()} is already open")
            self._workers = workers or self.max_workers
            self._pool = self._start(None)
        return self

    def _start(self, mp_context) -> concurrent.futures.ProcessPoolExecutor:
        context = mp_context or multiprocessing.get_context()
        # A forkserver child's parent is the server, which exits with us.
        owner = (None if context.get_start_method() == "forkserver"
                 else os.getpid())
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=self._workers, mp_context=context,
            initializer=_watch_parent, initargs=(owner,))
        try:
            for ready in [pool.submit(os.getpid)
                          for _ in range(self._workers)]:
                ready.result()
        except BaseException:
            pool.shutdown(wait=True, cancel_futures=True)
            raise
        return pool

    def _reopen(self) -> None:
        """Replace the broken pool, unless :meth:`close` got there
        first.  A process with live threads must not fork (a child can
        inherit a held lock), so there the new children are spawned."""
        with self._lock:
            if self._pool is None:
                return
            self.deaths += 1
            self._pool.shutdown(wait=True, cancel_futures=True)
            spawn = threading.active_count() > 1
            self._pool = self._start(
                multiprocessing.get_context("spawn") if spawn else None)

    def close(self) -> None:
        """Cancel what has not started, wait for what has, join and reap
        every child.  Closing a closed (or never opened) executor is a
        no-op."""
        with self._lock:
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
        """Queue ``fn(item)`` on the open pool.  The future alone does
        not survive a lost child; :meth:`run` does."""
        with self._lock:
            if self._pool is None:
                raise RuntimeError(f"{self.describe()} is not open")
            try:
                future = self._pool.submit(fn, item)
            except BrokenProcessPool as exc:
                # Broken under another item, not yet reopened: this one
                # is lost like those already in flight.
                future = concurrent.futures.Future()
                future.set_exception(exc)
        return future

    def run(self, fn: Callable[[T], R], items: Sequence[T],
            stop: Optional[threading.Event] = None) -> Iterator[R]:
        """``fn(item)`` for every item, as they complete.  ``stop`` (an
        event, say a job's cancel) ends the run early without abandoning
        anything: see :meth:`_drain`."""
        if not items:
            return
        with self._lock:  # close() may run on another thread
            own_pool = self._pool is None
        if own_pool:
            workers = min(self.max_workers, len(items))
            if workers == 1:
                # A one-worker pool only adds IPC; keep semantics, skip cost.
                for item in items:
                    if _is_set(stop):
                        return
                    yield fn(item)
                return
            self.open(workers)
        try:
            yield from self._drain(fn, list(items), stop)
        finally:
            if own_pool:
                self.close()

    def _drain(self, fn: Callable[[T], R], items: List[T],
               stop: Optional[threading.Event] = None) -> Iterator[R]:
        """Yield ``fn(item)`` for every item as it completes.

        Every item is submitted at once, so the pool's call queue holds
        a child's next item before it finishes the current one.  A broken
        pool fails every future in flight at once, so the round drains
        promptly: what it lost is collected on the way, the pool is
        reopened and the lost items are the next round.  Any other error
        cancels what has not started, so a failing trial surfaces
        immediately instead of after the rest of the campaign.

        Once ``stop`` is set after a completion the run winds down:
        futures no child holds yet are cancelled, those one does hold —
        running, or already in the call queue — are still awaited and
        yielded, and a break on the way is nobody's to resubmit."""
        losses = 0
        while items and not _is_set(stop):
            if losses > MAX_RESUBMITS:
                raise WorkerLost(items[0], losses)
            if losses:
                with self._lock:
                    self.resubmitted += len(items)
            flights = {self.submit(fn, item): item for item in items}
            broken = set()
            try:
                for future in _as_completed(flights, stop):
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        broken.add(future)
                        continue
                    losses = 0
                    yield result
            except BaseException:
                for pending in flights:
                    _cancel(pending)
                raise
            if not broken:
                return
            self._reopen()
            items = [flights[future] for future in flights if future in broken]
            losses += 1


def _watch_parent(parent: Optional[int]) -> None:
    """Pool-child initializer: exit once this child's parent ``parent``
    (``None``: whichever it has now) is no longer its parent.  An owner
    killed outright never shuts its pool down, and the re-parented
    children would wait on its call queue for ever.  A child that starts
    after its owner died exits at once."""
    threading.Thread(target=_exit_once_orphaned,
                     args=(parent or os.getppid(),),
                     name="pool-parent-watch", daemon=True).start()


def _exit_once_orphaned(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(PARENT_POLL_S)
    os._exit(1)


def _is_set(stop: Optional[threading.Event]) -> bool:
    return stop is not None and stop.is_set()


def _cancel(future: concurrent.futures.Future) -> bool:
    """Cancel ``future`` unless a child already holds it.

    A cancelled future stays in the stdlib pool until its manager thread
    gets round to it, and a pool that breaks before then fails *every*
    future it holds: on CPython 3.11 ``set_exception`` on the cancelled
    one raises ``InvalidStateError`` in the manager thread, which dies
    with the other futures unresolved and the children alive (later
    releases catch it there).  A cancelled future is nobody's any more,
    so it takes that news in silence."""
    cancelled = future.cancel()
    if cancelled:
        future.set_exception = _ignore
    return cancelled


def _ignore(_exception: BaseException) -> None:
    """What a cancelled future does with a broken pool's exception."""


def _as_completed(flights, stop: Optional[threading.Event]):
    """The futures of ``flights`` as they complete; once ``stop`` is set
    after one, only those that can no longer be cancelled."""
    waiting = set(flights)
    while waiting:
        for future in concurrent.futures.as_completed(waiting):
            waiting.discard(future)
            yield future
            if _is_set(stop):
                waiting = {held for held in waiting if not _cancel(held)}
                stop = None  # wound down: what is left is awaited
                break


def make_executor(name: str,
                  max_workers: Optional[int] = None) -> CampaignExecutor:
    """Build an executor from its registry name."""
    key = name.strip().lower()
    if key == "serial":
        return SerialExecutor()
    if key == "process":
        return ProcessPoolExecutor(max_workers=max_workers)
    raise ValueError(f"unknown executor {name!r}; "
                     f"known executors: {', '.join(EXECUTOR_NAMES)}")
