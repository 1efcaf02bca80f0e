"""Real asynchronous execution of task graphs on worker threads.

This module is the "for real" counterpart of the discrete-event
simulator: the same :class:`~repro.runtime.graph.TaskGraph` the list
scheduler times is executed on a persistent pool of OS threads with

* a dependency-tracking event loop — a task is dispatched only when all
  of its dependencies have finished, and ready tasks are handed to free
  threads in priority order (recovery tasks carry the paper's lower
  priority, so reductions really start first, Section 3.3.2);
* per-page locks — tasks that declare a ``page`` serialise against other
  tasks touching the same page.  This is the thread-safety backstop
  *mutating* recovery actions will need once repairs run concurrently
  with consumers; the resilient solver's current task actions are
  deliberately read-only (bitwise neutrality across backends) and
  declare no page, so today the locks are exercised by the backend's
  own tests and by any custom graphs that opt in;
* measured wall-clock intervals per task, from which the backend reports
  real overlap (did recovery actually run while reductions ran?) and a
  measured per-state breakdown next to the simulated one;
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
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import resolve_worker_count
from repro.runtime.backend import (ExecutionBackend, ExecutionResult,
                                   WallInterval)
from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.runtime.graph import TaskGraph, maybe_verify_graph
from repro.sanitize import (make_condition, make_lock,
                            record_task_accesses, sanitizer_enabled)


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

    @contextmanager
    def holding(self, page: Optional[int]):
        """Context manager: hold the page's lock, or nothing for ``None``."""
        if page is None:
            yield
            return
        lock = self.lock_for(int(page))
        with lock:
            yield

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

    def observe(self, result: ExecutionResult,
                pairs: Tuple[Tuple[str, str], ...] = ()) -> None:
        """Digest one real execution: overlap counts plus the measured
        window of every (recovery task, dependent scalar) pair."""
        with self._lock:
            self._summary.runs += 1
        if not result.wall_intervals:
            return
        overlaps = result.recovery_overlaps()
        halo_overlaps = result.recovery_halo_overlaps()
        if overlaps or halo_overlaps:
            with self._lock:
                self._summary.overlapped_recoveries += overlaps
                self._summary.halo_overlapped_recoveries += halo_overlaps
        for recovery_name, scalar_name in pairs:
            rec = result.wall_intervals.get(recovery_name)
            scal = result.wall_intervals.get(scalar_name)
            if rec is not None and scal is not None:
                self.record_window(f"{recovery_name}->{scalar_name}",
                                   rec.end, scal.start)

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


@dataclass
class _RunState:
    """Mutable bookkeeping of one in-flight graph execution."""

    tasks: Dict[str, object]
    remaining: Dict[str, int]
    successors: Dict[str, List[str]]
    ready: List[Tuple[int, int, str]] = field(default_factory=list)
    intervals: Dict[str, WallInterval] = field(default_factory=dict)
    values: Dict[str, object] = field(default_factory=dict)
    n_done: int = 0
    inflight: int = 0
    error: Optional[BaseException] = None
    t0: float = 0.0
    #: Monotone tie-break counter so equal-priority ready tasks dispatch
    #: in the order they became ready (mirrors the simulator's tie-break).
    seq: int = 0


class ThreadedBackend(ExecutionBackend):
    """Thread-pool execution backend (real concurrency, measured time).

    ``num_workers`` is the *simulated* worker count (paper semantics);
    the real thread count defaults to the same number capped by the
    ``REPRO_MAX_WORKERS`` environment override, or ``max_threads`` when
    given.  Worker threads are started lazily on the first :meth:`run`
    and persist across runs (a resilient solve executes one graph per
    iteration); :meth:`close` joins them.
    """

    name = "threaded"

    def __init__(self, num_workers: int,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 charge_overhead: bool = True,
                 max_threads: Optional[int] = None,
                 pace: float = 1.0):
        super().__init__(num_workers, cost_model=cost_model,
                         charge_overhead=charge_overhead)
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
        self._cond = make_condition(name="ThreadedBackend.cond")
        self._threads: List[threading.Thread] = []
        self._state: Optional[_RunState] = None
        self._shutdown = False
        #: Serialises whole-graph runs (one graph in flight at a time).
        self._run_lock = make_lock("ThreadedBackend.run_lock")

    # ------------------------------------------------------------------
    def run(self, graph: TaskGraph, start_time: float = 0.0
            ) -> ExecutionResult:
        """Simulate the graph's timeline, then execute it for real."""
        schedule = self.simulate(graph, start_time=start_time)
        result = self.execute(graph)
        result.schedule = schedule
        return result

    def execute(self, graph: TaskGraph) -> ExecutionResult:
        """Execute the graph for real without re-deriving its simulated
        timeline (``result.schedule`` is ``None``).

        This is the hot path of the resilient solver, which has already
        scheduled (or template-cached) the iteration's timeline and only
        needs the measured side: paying a second ``O(V log V)`` list
        schedule per iteration here would double the campaign cost.
        """
        graph.validate()
        maybe_verify_graph(graph)  # opt-in REPRO_VERIFY_GRAPHS=1 assertion
        state = self._execute(graph)
        wall_time = 0.0
        if state.intervals:
            wall_time = (max(i.end for i in state.intervals.values())
                         - min(i.start for i in state.intervals.values()))
        return ExecutionResult(backend=self.name,
                               executed_real=True, wall_time=wall_time,
                               wall_intervals=dict(state.intervals),
                               values=dict(state.values),
                               kinds={t.name: t.kind for t in graph.tasks})

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

    def _execute(self, graph: TaskGraph) -> _RunState:
        with self._run_lock:
            tasks = {t.name: t for t in graph.tasks}
            remaining = {name: sum(1 for d in t.deps if d in tasks)
                         for name, t in tasks.items()}
            successors: Dict[str, List[str]] = {name: [] for name in tasks}
            for t in tasks.values():
                for dep in t.deps:
                    if dep in successors:
                        successors[dep].append(t.name)
            state = _RunState(tasks=tasks, remaining=remaining,
                              successors=successors)
            for name, ndeps in remaining.items():
                if ndeps == 0:
                    heapq.heappush(state.ready,
                                   (-tasks[name].priority, state.seq, name))
                    state.seq += 1
            state.t0 = time.perf_counter()  # repro-lint: allow[wall-clock] wall-interval origin for the overlap monitor, never fingerprinted
            total = len(tasks)
            if total == 0:
                return state
            self._ensure_pool()
            with self._cond:
                self._state = state
                self._cond.notify_all()
                # On error the recording worker clears the ready queue, so
                # this loop just drains the in-flight tasks and returns.
                while (state.n_done < total
                       and not (state.error is not None
                                and state.inflight == 0 and not state.ready)):
                    self._cond.wait(timeout=1.0)
                self._state = None
            if state.error is not None:
                raise state.error
            return state

    def _worker(self, idx: int) -> None:
        while True:
            with self._cond:
                while not self._shutdown and not (
                        self._state is not None and self._state.ready):
                    self._cond.wait()
                if self._shutdown:
                    return
                state = self._state
                _, _, name = heapq.heappop(state.ready)
                task = state.tasks[name]
                state.inflight += 1
            value: object = None
            error: Optional[BaseException] = None
            began = ended = None
            try:
                with self.page_locks.holding(task.page):
                    # The interval starts once the page lock is held, so
                    # lock-wait time is not mistaken for concurrent work.
                    began = time.perf_counter() - state.t0  # repro-lint: allow[wall-clock] measured task interval, reported not fingerprinted
                    if sanitizer_enabled():
                        # Bridge the task's declared resource sets into
                        # dynamic accesses, from the thread that really
                        # runs it and inside the page-lock critical
                        # section so locksets include the page lock.
                        record_task_accesses(task.reads,
                                             task.resources_written(),
                                             task=name)
                    try:
                        if task.action is not None:
                            value = task.action()
                        if self.pace > 0.0 and task.duration > 0.0:
                            budget = task.duration * self.pace
                            remaining = budget - (time.perf_counter()  # repro-lint: allow[wall-clock] pacing only shapes wall intervals, not iterates
                                                  - state.t0 - began)
                            if remaining > 0:
                                time.sleep(remaining)
                    finally:
                        ended = time.perf_counter() - state.t0  # repro-lint: allow[wall-clock] measured task interval, reported not fingerprinted
            except BaseException as exc:  # propagate to the caller
                error = exc
            if began is None or ended is None:
                began = ended = time.perf_counter() - state.t0  # repro-lint: allow[wall-clock] measured task interval, reported not fingerprinted
            with self._cond:
                state.intervals[name] = WallInterval(start=began, end=ended,
                                                     worker=idx)
                state.values[name] = value
                state.inflight -= 1
                state.n_done += 1
                if error is not None and state.error is None:
                    state.error = error
                if state.error is not None:
                    # Stop the pipeline immediately — this thread already
                    # holds the lock, so no other worker can pop a task
                    # between the error being recorded and the clear.
                    state.ready.clear()
                if state.error is None:
                    for nxt in state.successors[name]:
                        state.remaining[nxt] -= 1
                        if state.remaining[nxt] == 0:
                            heapq.heappush(state.ready,
                                           (-state.tasks[nxt].priority,
                                            state.seq, nxt))
                            state.seq += 1
                self._cond.notify_all()
