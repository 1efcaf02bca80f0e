"""Real asynchronous execution of compiled plans on worker threads.

This module is the "for real" counterpart of the discrete-event
simulator: the same :class:`~repro.runtime.plan.IterationPlan` the list
scheduler times is executed on a persistent pool of OS threads with

* a dependency-tracking dispatch loop that walks the plan's integer
  arrays — a counter vector seeded from ``plan.indegree``, decremented
  along ``plan.successors``, and a ready heap of
  ``(-priority, seq, index)`` — so a task is dispatched only when all of
  its dependencies have finished, and ready tasks are handed to free
  threads in priority order (recovery tasks carry the paper's lower
  priority, so reductions really start first, Section 3.3.2).  Nothing
  is rebuilt per run: what changes between two runs of a plan is the
  action table and the durations vector;
* per-page locks — tasks that declare a ``page`` serialise against other
  tasks touching the same page.  This is the thread-safety backstop
  *mutating* recovery actions will need once repairs run concurrently
  with consumers; the resilient solver's current task actions are
  deliberately read-only (bitwise neutrality across backends) and
  declare no page, so today the locks are exercised by the backend's
  own tests and by any custom graphs that opt in;
* measured wall-clock intervals per task, written into plan-order
  columns, from which the backend reports real overlap (did recovery
  actually run while reductions ran?) and a measured per-state breakdown
  next to the simulated one;
* an explicit :class:`VulnerableWindowMonitor` recording AFEIR's trade
  window — the wall-clock gap between a recovery task finishing and the
  dependent scalar starting — and every DUE that lands *after* its
  page's recovery already ran (the paper's Section 5.4 coverage loss).

The simulated timeline is still produced by the shared deterministic
scheduler (see :class:`~repro.runtime.backend.ExecutionBackend`), so a
solver configured with this backend makes bit-identical clock-dependent
decisions to the simulated backend while its task system genuinely runs
concurrently.
"""

from __future__ import annotations

import heapq
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.config import resolve_worker_count
from repro.runtime.backend import ExecutionBackend, ExecutionResult
from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.runtime.graph import TaskGraph
from repro.runtime.plan import IterationPlan
from repro.sanitize import (make_condition, make_lock,
                            record_task_accesses, sanitizer_enabled)


#: What a task that declares no page holds while it runs.
_NO_PAGE = nullcontext()


class PageLockTable:
    """Lazily-created per-page locks for tasks that declare a page.

    Concurrency contract: :meth:`lock_for` is the **single audited
    access path** to the underlying table — creation and lookup both
    happen under the guard, so two workers racing on a fresh page can
    never observe (or create) two different locks for it.  Nothing else
    may touch ``_locks``: an unguarded read would race the dict resize
    a concurrent insert can trigger.  Enforced by the regression test
    ``tests/sanitize/test_page_lock_table.py``.
    """

    def __init__(self) -> None:
        self._locks: Dict[int, threading.Lock] = {}
        self._guard = make_lock("PageLockTable.guard")

    def lock_for(self, page: int) -> threading.Lock:
        """The page's lock (created on first use, under the guard)."""
        with self._guard:
            lock = self._locks.get(page)
            if lock is None:
                lock = self._locks[page] = make_lock(f"page:{page}.lock")
            return lock

    def holding(self, page: Optional[int]):
        """Context manager: hold the page's lock, or nothing for ``None``."""
        return _NO_PAGE if page is None else self.lock_for(int(page))

    def __len__(self) -> int:
        with self._guard:
            return len(self._locks)


@dataclass(frozen=True)
class WindowRecord:
    """One measured vulnerable window (wall-clock, seconds)."""

    label: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class DueRecord:
    """One DUE observation relative to the vulnerable window."""

    vector: str
    page: int
    sim_time: float
    point: str
    #: True when the DUE landed after its covering recovery task had
    #: already run — too late to be repaired before the next scalar.
    in_window: bool


@dataclass
class MonitorSummary:
    """Picklable digest of one solve's monitor observations."""

    runs: int = 0
    recovery_scans: int = 0
    pages_seen_by_scans: int = 0
    overlapped_recoveries: int = 0
    #: Recovery tasks whose measured interval overlapped the re-enacted
    #: halo exchange of the ranks placement (0 without a halo task, and
    #: structurally 0 for FEIR, whose recovery barriers the reduction).
    halo_overlapped_recoveries: int = 0
    windows: int = 0
    total_window: float = 0.0
    dues_observed: int = 0
    dues_in_window: int = 0

    @property
    def mean_window(self) -> float:
        return self.total_window / self.windows if self.windows else 0.0

    @property
    def concurrency_observed(self) -> bool:
        """True when recovery measurably ran while other tasks ran."""
        return self.overlapped_recoveries > 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "runs": self.runs,
            "recovery_scans": self.recovery_scans,
            "pages_seen_by_scans": self.pages_seen_by_scans,
            "overlapped_recoveries": self.overlapped_recoveries,
            "halo_overlapped_recoveries": self.halo_overlapped_recoveries,
            "windows": self.windows,
            "total_window": self.total_window,
            "mean_window": self.mean_window,
            "dues_observed": self.dues_observed,
            "dues_in_window": self.dues_in_window,
            "concurrency_observed": self.concurrency_observed,
        }


class VulnerableWindowMonitor:
    """Thread-safe recorder of AFEIR's asynchrony and its cost.

    The monitor collects three kinds of evidence:

    * **scans** — every recovery task that really executed reports in
      (how many poisoned pages it found), proving recovery ran at all;
    * **windows / overlaps** — from the measured wall intervals of a real
      execution: the gap between a recovery task finishing and its
      dependent scalar starting (the vulnerable window), and whether the
      recovery interval overlapped other tasks on other threads (the
      asynchrony the paper claims);
    * **DUEs** — every materialised fault, flagged ``in_window`` when it
      landed after its page's recovery already ran, i.e. exactly the
      losses Section 5.4 attributes to the asynchronous schedule.
    """

    def __init__(self) -> None:
        self._lock = make_lock("VulnerableWindowMonitor.lock")
        self.window_records: List[WindowRecord] = []
        self.due_records: List[DueRecord] = []
        self._summary = MonitorSummary()

    # -- recording (called from worker threads and the solver) ----------
    def record_scan(self, label: str, pages_found: int = 0) -> None:
        with self._lock:
            self._summary.recovery_scans += 1
            self._summary.pages_seen_by_scans += int(pages_found)

    def record_window(self, label: str, start: float, end: float) -> None:
        if end <= start:
            return
        with self._lock:
            self.window_records.append(WindowRecord(label, start, end))
            self._summary.windows += 1
            self._summary.total_window += end - start

    def note_due(self, vector: str, page: int, sim_time: float,
                 point: str, in_window: bool) -> None:
        with self._lock:
            self.due_records.append(DueRecord(vector, page, sim_time,
                                              point, in_window))
            self._summary.dues_observed += 1
            if in_window:
                self._summary.dues_in_window += 1

    def observe(self, result: Optional[ExecutionResult],
                pairs: Sequence[Tuple[str, int, int]] = ()) -> None:
        """Digest one real execution: overlap counts plus the measured
        window of every ``(label, recovery index, scalar index)`` pair
        (plan indices).  ``None`` counts a run whose wall side is not an
        output (the simulated clock)."""
        overlaps = halo_overlaps = 0
        if result is not None:
            overlaps = result.recovery_overlaps()
            halo_overlaps = result.recovery_halo_overlaps()
        with self._lock:
            self._summary.runs += 1
            self._summary.overlapped_recoveries += overlaps
            self._summary.halo_overlapped_recoveries += halo_overlaps
        if result is not None:
            for label, recovery, scalar in pairs:
                self.record_window(label, result.ends[recovery],
                                   result.starts[scalar])

    # -- queries --------------------------------------------------------
    @property
    def dues_in_window(self) -> int:
        with self._lock:
            return self._summary.dues_in_window

    @property
    def overlapped_recoveries(self) -> int:
        with self._lock:
            return self._summary.overlapped_recoveries

    @property
    def halo_overlapped_recoveries(self) -> int:
        with self._lock:
            return self._summary.halo_overlapped_recoveries

    def summary(self) -> Dict[str, object]:
        with self._lock:
            return self._summary.as_dict()


class ThreadedBackend(ExecutionBackend):
    """Thread-pool execution backend (real concurrency, measured time).

    ``num_workers`` is the *simulated* worker count (paper semantics);
    the real thread count defaults to the same number capped by the
    ``REPRO_MAX_WORKERS`` environment override, or ``max_threads`` when
    given.  Worker threads are started lazily on the first
    :meth:`execute` and persist across runs (a resilient solve executes
    one plan per iteration); :meth:`close` joins them.
    """

    name = "threaded"

    def __init__(self, num_workers: int,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 max_threads: Optional[int] = None,
                 pace: float = 1.0):
        super().__init__(num_workers, cost_model=cost_model)
        if pace < 0:
            raise ValueError(f"pace must be non-negative, got {pace}")
        #: Wall-clock pacing: every task occupies its thread for at least
        #: ``duration * pace`` real seconds (the remainder is slept,
        #: releasing the GIL).  1.0 replays the cost model's durations in
        #: real time, so scheduling effects — recovery overlapping the
        #: reductions, FEIR's barrier serialisation — are physically
        #: measurable; 0.0 runs actions back-to-back as fast as possible.
        self.pace = float(pace)
        self.thread_count = resolve_worker_count(
            max_threads if max_threads is not None else num_workers)
        self.page_locks = PageLockTable()
        #: One lock under two conditions: workers wait on ``_cond`` for a
        #: ready task, the submitting thread on ``_done`` for the end of
        #: its run — so a completion wakes exactly the threads it has a
        #: task (or the news) for.  Always entered as ``with self._cond``.
        lock = make_lock("ThreadedBackend.lock")
        self._cond = make_condition(lock)
        self._done = make_condition(lock)
        self._threads: List[threading.Thread] = []
        self._shutdown = False
        #: Serialises whole-plan runs (one plan in flight at a time).
        self._run_lock = make_lock("ThreadedBackend.run_lock")
        # -- the run in flight; everything below is guarded by the lock --
        #: ``(plan, actions, durations, result, sanitized, t0)`` of the
        #: live run.
        self._run: Optional[tuple] = None
        #: Unfinished-dependency counter per task (from ``plan.indegree``).
        self._remaining: List[int] = []
        #: Ready heap of ``(-priority, seq, index)``; ``seq`` is a
        #: monotone counter so equal-priority tasks dispatch in the order
        #: they became ready (mirrors the simulator's tie-break).
        self._ready: List[Tuple[int, int, int]] = []
        self._seq = 0
        #: Tasks the run still waits for, and those of them on a thread.
        self._unfinished = 0
        self._inflight = 0
        self._error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    def execute(self, graph: Union[TaskGraph, IterationPlan],
                actions: Optional[Sequence[Optional[Callable]]] = None,
                durations: Optional[Sequence[float]] = None
                ) -> ExecutionResult:
        """Run the plan's actions on the worker threads, dependencies
        and priorities respected, and measure every task's wall interval.

        This is the hot path of the resilient solver, which re-enacts
        one compiled plan per iteration: nothing structural is derived
        here — the counter vector is a copy of ``plan.indegree`` and the
        ready heap starts from ``plan.roots``.  ``durations`` only pace
        the tasks (``pace > 0``).  The first action to raise clears the
        ready queue; the in-flight tasks drain and that error is
        re-raised here, leaving the pool usable.
        """
        plan, actions, durations = self._bind(graph, actions, durations)
        total = len(plan)
        result = ExecutionResult(plan=plan, executed_real=True,
                                 starts=[0.0] * total, ends=[0.0] * total,
                                 workers=[0] * total, results=[None] * total)
        if total == 0:
            return result
        priorities = plan.priorities
        ready = [(-priorities[i], seq, i) for seq, i in enumerate(plan.roots)]
        heapq.heapify(ready)
        with self._run_lock:
            self._ensure_pool()
            with self._cond:
                self._run = (plan, actions, durations, result,
                             sanitizer_enabled(), time.perf_counter())  # repro-lint: allow[wall-clock] wall-interval origin for the overlap monitor, never fingerprinted
                self._remaining = list(plan.indegree)
                self._ready = ready
                self._seq = len(ready)
                self._unfinished = total
                self._cond.notify(len(ready))
                try:
                    while self._unfinished:
                        self._done.wait()
                except BaseException as exc:
                    # An interrupted wait (KeyboardInterrupt) stops the run
                    # like a task error and drains it, so no worker books a
                    # stale completion into the next run.
                    self._abort(exc)
                    while self._unfinished:
                        self._done.wait()
                self._run = None
                error, self._error = self._error, None
            if error is not None:
                raise error
        result.wall_time = max(result.ends) - min(result.starts)
        return result

    def close(self) -> None:
        with self._cond:
            self._shutdown = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads = []

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> None:
        if self._threads:
            return
        if self._shutdown:
            raise RuntimeError("backend is closed")
        for idx in range(self.thread_count):
            thread = threading.Thread(target=self._worker, args=(idx,),
                                      name=f"repro-exec-{idx}", daemon=True)
            thread.start()
            self._threads.append(thread)

    def _worker(self, idx: int) -> None:
        """The one worker body: under the lock, book the task this
        thread just ran and take the next ready one; outside it, run."""
        cond = self._cond
        finished = None   # (index, began, ended, error) of the last task
        while True:
            with cond:
                if finished is not None:
                    self._complete(idx, *finished)
                while not self._ready and not self._shutdown:
                    cond.wait()
                if self._shutdown:
                    return
                i = heapq.heappop(self._ready)[2]
                self._inflight += 1
                run = self._run
            finished = (i, *self._run_task(i, run))

    def _run_task(self, i: int, run: tuple
                  ) -> Tuple[float, float, Optional[BaseException]]:
        """Run task ``i`` of ``run`` under its page lock; returns its
        measured ``(began, ended)`` and the exception its action raised,
        if any."""
        plan, actions, durations, result, sanitized, t0 = run
        page, reads, writes = plan.resources[i]
        began = ended = None
        try:
            with self.page_locks.holding(page):
                # The interval starts once the page lock is held, so
                # lock-wait time is not mistaken for concurrent work.
                began = time.perf_counter() - t0  # repro-lint: allow[wall-clock] measured task interval, reported not fingerprinted
                if sanitized:
                    # Bridge the task's declared resource sets into
                    # dynamic accesses, from the thread that really runs
                    # it and inside the page-lock critical section so
                    # locksets include the page lock.
                    record_task_accesses(reads, writes, task=plan.names[i])
                try:
                    action = actions[i]
                    if action is not None:
                        result.results[i] = action()
                    if self.pace > 0.0 and durations[i] > 0.0:
                        budget = durations[i] * self.pace
                        remaining = budget - (time.perf_counter() - t0 - began)  # repro-lint: allow[wall-clock] pacing only shapes wall intervals, not iterates
                        if remaining > 0:
                            time.sleep(remaining)
                finally:
                    ended = time.perf_counter() - t0  # repro-lint: allow[wall-clock] measured task interval, reported not fingerprinted
        except BaseException as exc:  # propagate to the caller
            if began is None or ended is None:
                began = ended = time.perf_counter() - t0  # repro-lint: allow[wall-clock] measured task interval, reported not fingerprinted
            return began, ended, exc
        return began, ended, None

    def _complete(self, idx: int, i: int, began: float, ended: float,
                  error: Optional[BaseException]) -> None:
        """Book task ``i`` as run by worker ``idx`` (lock held): record
        its interval, release its successors and wake one waiting worker
        per task that became ready beyond the one the caller takes."""
        plan, _, _, result, _, _ = self._run
        result.starts[i] = began
        result.ends[i] = ended
        result.workers[i] = idx
        self._inflight -= 1
        self._unfinished -= 1
        if error is not None or self._error is not None:
            self._abort(error)
        else:
            remaining, priorities = self._remaining, plan.priorities
            released = 0
            for nxt in plan.successors[i]:
                remaining[nxt] -= 1
                if remaining[nxt] == 0:
                    heapq.heappush(self._ready,
                                   (-priorities[nxt], self._seq, nxt))
                    self._seq += 1
                    released += 1
            if released > 1:
                self._cond.notify(released - 1)
        if self._unfinished == 0:
            self._done.notify()

    def _abort(self, error: Optional[BaseException]) -> None:
        """Keep the first error and stop the pipeline (lock held, so no
        worker can pop a task between the error being recorded and the
        clear); the run is left waiting for its in-flight tasks only."""
        if self._error is None:
            self._error = error
        self._ready.clear()
        self._unfinished = self._inflight
