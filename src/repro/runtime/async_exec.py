"""Real asynchronous execution of compiled plans on worker threads.

This module is the "for real" counterpart of the discrete-event
simulator: the same :class:`~repro.runtime.plan.IterationPlan` the list
scheduler times is executed on *lanes* — the calling thread and a
persistent pool of OS threads, one lane per usable CPU — with

* a dependency-tracking dispatch loop that walks the plan's integer
  arrays — a counter vector seeded from ``plan.indegree``, decremented
  along ``plan.successors``, and a ready heap of
  ``(-priority, seq, index)`` — so a task is dispatched only when all of
  its dependencies have finished, and ready tasks are handed to free
  lanes in priority order (recovery tasks carry the paper's lower
  priority, so reductions really start first, Section 3.3.2).  Nothing
  is rebuilt per run: what changes between two runs of a plan is the
  action table and the durations vector.  A completion is booked and
  its successors released under the executor's one lock, which the lane
  keeps while it pops its next task: that hand-off is what orders two
  dependent tasks, and the only synchronisation a task gets (the
  solver's task actions are read-only, so the backends stay
  bitwise-equal);
* measured wall-clock intervals per task, written into plan-order
  columns of an :class:`~repro.runtime.backend.ExecutionResult`, from
  which a solve's :class:`~repro.runtime.backend.ExecutionFold` reads
  real overlap (did recovery actually run while reductions ran?),
  AFEIR's vulnerable windows and a measured per-state breakdown next to
  the simulated one.

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
from typing import Callable, List, Optional, Sequence, Tuple

from repro.config import resolve_worker_count, usable_cpus
from repro.runtime.backend import ExecutionBackend, ExecutionResult
from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.runtime.plan import IterationPlan
from repro.sanitize import (make_condition, make_lock,
                            record_task_accesses, sanitizer_enabled)


class ThreadedBackend(ExecutionBackend):
    """Thread-pool execution backend (real concurrency, measured time).

    ``num_workers`` is the *simulated* worker count (paper semantics:
    the list scheduler times that many workers).  A plan really runs on
    ``thread_count`` *lanes*: by default one per usable CPU
    (:func:`~repro.config.usable_cpus`), never more than ``num_workers``
    and never fewer than two, since one lane could not overlap a
    recovery task with anything; lanes beyond the cores would only race
    for the interpreter lock.  The ``REPRO_MAX_WORKERS`` environment
    override caps that count.

    Lane 0 is the thread that calls :meth:`execute`.  The other
    ``thread_count - 1`` lanes are pool threads, started lazily on the
    first :meth:`execute` and kept across runs (a resilient solve
    executes one plan per iteration) until :meth:`close` joins them.
    """

    name = "threaded"

    def __init__(self, num_workers: int,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 pace: float = 1.0):
        super().__init__(num_workers, cost_model=cost_model)
        if pace < 0:
            raise ValueError(f"pace must be non-negative, got {pace}")
        #: Wall-clock pacing: every task occupies its lane for at least
        #: ``duration * pace`` real seconds (the remainder is slept,
        #: releasing the GIL).  1.0 replays the cost model's durations in
        #: real time, so scheduling effects — recovery overlapping the
        #: reductions, FEIR's barrier serialisation — are physically
        #: measurable; 0.0 runs actions back-to-back as fast as possible.
        self.pace = float(pace)
        self.thread_count = resolve_worker_count(
            min(self.num_workers, max(2, usable_cpus())))
        #: One lock under two conditions: pool lanes wait on ``_cond`` for
        #: a ready task, the caller's lane 0 on ``_done`` (``_parked``
        #: while it does) — so a completion wakes exactly the lanes it
        #: has a task, or the end of the run, for.
        lock = make_lock("ThreadedBackend.lock")
        self._cond = make_condition(lock)
        self._done = make_condition(lock)
        self._threads: List[threading.Thread] = []
        self._shutdown = False
        #: Serialises whole-plan runs (one plan in flight at a time).
        self._run_lock = make_lock("ThreadedBackend.run_lock")
        # -- the run in flight; everything below is guarded by the lock --
        #: ``(plan, actions, durations, sanitized, t0)`` of the live run.
        self._run: Optional[tuple] = None
        #: The live run's result and plan columns :meth:`_complete`
        #: writes and walks, bound once per run.
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._workers: List[int] = []
        self._successors: Sequence[Sequence[int]] = ()
        self._priorities: Sequence[int] = ()
        #: Unfinished-dependency counter per task (from ``plan.indegree``).
        self._remaining: List[int] = []
        #: Ready heap of ``(-priority, seq, index)``; ``seq`` is a
        #: monotone counter so equal-priority tasks dispatch in the order
        #: they became ready (mirrors the simulator's tie-break).  One
        #: list for the backend's life: the lanes bind it once.
        self._ready: List[Tuple[int, int, int]] = []
        self._seq = 0
        #: Tasks the run still waits for, and those of them on a lane.
        self._unfinished = 0
        self._inflight = 0
        self._parked = False
        self._error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    def execute(self, plan: IterationPlan,
                actions: Optional[Sequence[Optional[Callable]]] = None,
                durations: Optional[Sequence[float]] = None
                ) -> ExecutionResult:
        """Run the plan's actions on the lanes, dependencies and
        priorities respected, and measure every task's wall interval.

        This is the hot path of the resilient solver, which re-enacts
        one compiled plan per iteration: nothing structural is derived
        here — the counter vector is a copy of ``plan.indegree`` and the
        ready heap starts from ``plan.roots``.  ``durations`` only pace
        the tasks (``pace > 0``).  The calling thread is lane 0: it runs
        ready tasks itself and parks only while nothing is ready and a
        pool lane still holds a task.  The first action to raise clears
        the ready queue; the in-flight tasks drain and that error is
        re-raised here, leaving the pool usable.
        """
        actions, durations = self._bind(plan, actions, durations)
        result = ExecutionResult.blank(plan)
        if len(plan) == 0:
            return result
        priorities = plan.priorities
        with self._run_lock:
            self._ensure_pool()
            with self._cond:
                self._run = (plan, actions, durations, sanitizer_enabled(),
                             time.perf_counter())  # repro-lint: allow[wall-clock] wall-interval origin of the measured side, never fingerprinted
                self._starts, self._ends = result.starts, result.ends
                self._workers = result.workers
                self._successors, self._priorities = plan.successors, priorities
                self._remaining = list(plan.indegree)
                ready = self._ready
                ready[:] = [(-priorities[i], seq, i)
                            for seq, i in enumerate(plan.roots)]
                heapq.heapify(ready)
                self._seq = len(ready)
                self._unfinished = len(plan)
                if len(ready) > 1:
                    self._cond.notify(len(ready) - 1)
            self._lane(0)
            with self._cond:
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
        if self._shutdown:
            raise RuntimeError("backend is closed")
        if self._threads:
            return
        for idx in range(1, self.thread_count):
            thread = threading.Thread(target=self._lane, args=(idx,),
                                      name=f"repro-exec-{idx}", daemon=True)
            thread.start()
            self._threads.append(thread)

    def _lane(self, idx: int) -> None:
        """The one lane body: under the lock, take the next ready task;
        outside it, run the task; under it again, book the task.

        With nothing ready, a pool lane (``idx > 0``) waits on ``_cond``
        and returns once the backend closes; lane 0, the caller of
        :meth:`execute`, returns once its run has finished and parks on
        ``_done`` until then.
        """
        cond, ready = self._cond, self._ready
        acquire, release = cond.acquire, cond.release
        complete, run_task = self._complete, self._run_task
        pool = idx > 0
        with cond:
            while not (pool and self._shutdown):
                if ready:
                    i = heapq.heappop(ready)[2]
                    self._inflight += 1
                    run = self._run
                    release()
                    try:
                        began, ended, error = run_task(i, run)
                    finally:
                        acquire()
                    complete(idx, i, began, ended, error)
                elif pool:
                    cond.wait()
                elif self._unfinished:
                    self._park()
                else:
                    return

    def _park(self) -> None:
        """Lane 0 waits for a pool lane's completion (lock held).  An
        interrupted wait stops the run like a task error; the lane then
        parks until the in-flight tasks have drained, so none books a
        stale completion into the next run."""
        self._parked = True
        try:
            self._done.wait()
        except BaseException as exc:
            self._abort(exc)
        finally:
            self._parked = False

    def _run_task(self, i: int, run: tuple
                  ) -> Tuple[float, float, Optional[BaseException]]:
        """Run task ``i`` of ``run``; returns its measured ``(began,
        ended)`` and the exception its action raised, if any."""
        plan, actions, durations, sanitized, t0 = run
        began = time.perf_counter() - t0  # repro-lint: allow[wall-clock] measured task interval, reported not fingerprinted
        error = None
        try:
            if sanitized:
                # Bridge the task's declared resource sets into dynamic
                # accesses, from the thread that really runs it.
                record_task_accesses(*plan.resources[i], task=plan.names[i])
            action = actions[i]
            if action is not None:
                action()
            if self.pace > 0.0 and durations[i] > 0.0:
                budget = durations[i] * self.pace
                remaining = budget - (time.perf_counter() - t0 - began)  # repro-lint: allow[wall-clock] pacing only shapes wall intervals, not iterates
                if remaining > 0:
                    time.sleep(remaining)
        except BaseException as exc:  # propagate to the caller
            error = exc
        return began, time.perf_counter() - t0, error  # repro-lint: allow[wall-clock] measured task interval, reported not fingerprinted

    def _complete(self, idx: int, i: int, began: float, ended: float,
                  error: Optional[BaseException]) -> None:
        """Book task ``i`` as run by lane ``idx`` (lock held): record its
        interval, release its successors and wake a waiting lane for
        each task that became ready beyond the one this lane takes next
        — the parked caller first."""
        self._starts[i] = began
        self._ends[i] = ended
        self._workers[i] = idx
        self._inflight -= 1
        self._unfinished -= 1
        extra = 0
        if error is not None or self._error is not None:
            self._abort(error)
        else:
            remaining, ready, priorities = (self._remaining, self._ready,
                                            self._priorities)
            seq = self._seq
            for nxt in self._successors[i]:
                remaining[nxt] -= 1
                if not remaining[nxt]:
                    heapq.heappush(ready, (-priorities[nxt], seq, nxt))
                    seq += 1
            extra = seq - self._seq - 1
            self._seq = seq
        if self._parked and (extra > 0 or not self._unfinished):
            self._parked = False
            self._done.notify()
            extra -= 1
        if extra > 0:
            self._cond.notify(extra)

    def _abort(self, error: Optional[BaseException]) -> None:
        """Keep the first error and stop the pipeline (lock held, so no
        lane can pop a task between the error being recorded and the
        clear); the run is left waiting for its in-flight tasks only."""
        if self._error is None:
            self._error = error
        self._ready.clear()
        self._unfinished = self._inflight
