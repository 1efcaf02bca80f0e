"""Resilient, task-decomposed Conjugate Gradient (Sections 3.3 and 5).

This is the paper's implementation target: a page-blocked CG (optionally
block-Jacobi preconditioned) whose iterations are strip-mined into tasks
executed by the discrete-event runtime, with

* double-buffered search direction ``d`` (Listing 2), so the in-place
  update never destroys the only copy of recoverable data,
* a per-page skip protocol for reduction contributions of pages known to
  be lost (Section 3.3.2),
* fault injection according to an :class:`~repro.faults.ErrorScenario`,
* a pluggable recovery strategy (FEIR, AFEIR, Lossy Restart,
  checkpoint/rollback, trivial); FEIR/AFEIR add r1/r2/r3 recovery tasks
  to every iteration, either in the critical path or overlapped.

Execution model
---------------
Numerical work is performed eagerly with NumPy, while *time* is
simulated.  The structure of an iteration — its task graph, the compiled
:class:`~repro.runtime.plan.IterationPlan` of each *shape* (resilient or
not, with or without a checkpoint task), where the check points fall —
is owned by :class:`~repro.solvers.cg_plan.CGPlanner`; this module holds
a planner and asks it to time an iteration from the current clock
(fault-free durations first, then the iteration's actual recovery work)
and, on the cells that execute for real, to re-enact it.  Fault
injection times are interpreted on the simulated clock.  With
``SolverConfig(scheduler="threaded")`` or ``clock="wall"`` the same
plans are *additionally* executed for real each iteration — recovery
tasks genuinely overlap the reductions, wall-clock time and per-state
shares are measured, and the vulnerable-window monitor records the gap
between each recovery task and its dependent scalar — while the
simulated timeline stays authoritative for every clock-dependent
decision, so all runtime cells agree bit-for-bit.  Within an iteration,
faults are materialised at four check points:

=====  ==============================  =========================
point  position in the iteration       covering recovery task
=====  ==============================  =========================
``A``  before the rho/beta scalar      ``r2``
``B``  after the d update, before A*d  (handled eagerly)
``C``  before the alpha scalar         ``r1``
``D``  end of the iteration            ``r3``
=====  ==============================  =========================

With FEIR the recovery tasks are barriers, so every fault detected
before a scalar is repaired in time.  With AFEIR a fault injected after
the covering recovery task has started but before the scalar runs cannot
be repaired in time: the affected page's contribution to that reduction
is *skipped*, the dependent per-page update is deferred, and the page is
repaired exactly at point ``D`` (the relations ``g = b - Ax`` and
``q = A d`` still hold there), after which the skipped update is
re-executed.  This reproduces the coverage/overhead trade-off of
Section 5.4: AFEIR never loses exactness of the data, but high error
rates pollute the reductions and slow convergence.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.analysis.convergence import ConvergenceRecord, ResidualHistory
from repro.core.checkpoint import CheckpointStrategy
from repro.core.relations import MatVecRelation, ResidualRelation
from repro.core.strategy import RecoveryStats, RecoveryStrategy
from repro.faults.injector import Injection
from repro.faults.scenarios import ErrorScenario
from repro.matrices.blocked import PageBlockedMatrix
from repro.matrices.sparse import SparseOperator
from repro.memory.manager import MemoryManager
from repro.memory.pages import PagedVector
from repro.precond.base import Preconditioner
from repro.runtime.kernels import make_kernel_engine
from repro.runtime.runtime import make_executor, resolve_runtime_spec
from repro.runtime.trace import ExecutionTrace
from repro.solvers.cg_plan import (COVERING_TASK, RECOVERY_TASKS, CGPlanner,
                                   IterationTiming)
from repro.solvers.cg_types import CGState, SolveResult, SolverConfig

#: Injection schedule horizon, as a multiple of the ideal solve time.
HORIZON_FACTOR = 50.0
#: Extra simulated cost of servicing one page fault (signal delivery,
#: page re-mapping by the OS), charged per detected DUE.
FAULT_SERVICE_TIME = 0.5e-3


@dataclass(frozen=True)
class PointOutcome:
    """What handling the faults of one check point cost and decided."""

    #: Simulated recovery work, charged to the point's covering task.
    work: float = 0.0
    #: Simulated page-fault service time of the detected DUEs.
    service: float = 0.0
    restart: bool = False
    rollback: bool = False
    #: Pages FEIR/AFEIR could not repair: their contribution to the
    #: point's reduction is skipped.
    skip: FrozenSet[int] = frozenset()


_NO_FAULTS = PointOutcome()


class _Iteration:
    """One iteration's timing, its faults and what handling them cost."""

    __slots__ = ("number", "this_d", "last_d", "checkpoint", "start",
                 "timing", "by_point", "had_faults", "late", "recovery_work",
                 "fault_service", "restart", "rolled_back")

    def __init__(self, number: int, checkpoint: bool, start: float,
                 timing: IterationTiming):
        self.number = number
        #: Double-buffered search direction (Listing 2): this iteration
        #: writes ``this_d`` from ``last_d``.
        self.this_d, self.last_d = (("d0", "d1") if number % 2 == 1
                                    else ("d1", "d0"))
        self.checkpoint = checkpoint
        #: The simulated clock when the iteration started.
        self.start = start
        self.timing = timing
        self.by_point = {"A": [], "B": [], "C": [], "D": []}
        self.had_faults = False
        #: AFEIR pages hit too late for their scalar: contribution
        #: skipped, update deferred, repaired exactly at point D.
        self.late = {"g": set(), "x": set(), "d": set(), "q": set()}
        #: Simulated work added to each recovery task by this
        #: iteration's faults.
        self.recovery_work = dict.fromkeys(RECOVERY_TASKS, 0.0)
        self.fault_service = 0.0
        self.restart = False
        self.rolled_back = False

    def time_of(self, key: str) -> float:
        """Simulated time of a check point or recovery-task start."""
        return self.start + self.timing.points[key]

    def absorb(self, point: str, outcome: PointOutcome) -> None:
        self.recovery_work[COVERING_TASK[point]] += outcome.work
        self.fault_service += outcome.service
        self.restart |= outcome.restart
        self.rolled_back |= outcome.rollback


class _Run:
    """What one solve carries from iteration to iteration."""

    __slots__ = ("state", "stats", "pending", "b_norm", "history", "trace",
                 "clock", "rel", "rho_old", "restart_next", "converged")

    def __init__(self, state: CGState, pending: "deque[Injection]",
                 b_norm: float, num_workers: int):
        self.state = state
        self.stats = RecoveryStats()
        #: Time-sorted injections; each iteration takes its batch off the
        #: front.
        self.pending = pending
        self.b_norm = b_norm
        self.history = ResidualHistory()
        self.trace = ExecutionTrace(num_workers)
        self.clock = 0.0
        self.rel = math.inf
        self.rho_old = 0.0
        self.restart_next = True   # first iteration behaves like a restart
        self.converged = False


class ResilientCG:
    """Page-blocked, task-scheduled CG/PCG with pluggable DUE recovery."""

    PROTECTED = ("x", "g", "d0", "d1", "q")

    def __init__(self, A: "sp.spmatrix | SparseOperator | np.ndarray",
                 b: np.ndarray, *,
                 strategy: Optional[RecoveryStrategy] = None,
                 preconditioner: Optional[Preconditioner] = None,
                 scenario: Optional[ErrorScenario] = None,
                 config: Optional[SolverConfig] = None,
                 matrix_name: str = "",
                 compiled: Optional[dict] = None):
        """``compiled`` is the table iteration shapes are compiled into
        and read from (see :mod:`repro.solvers.cg_plan`): a campaign
        hands every solver its cache's, so a process compiles each shape
        once; a solver handed none compiles for itself."""
        self.config = cfg = config or SolverConfig()
        self.blocked = PageBlockedMatrix(A, page_size=cfg.page_size)
        self.A = self.blocked.A
        self.n = self.blocked.n
        self.b = np.asarray(b, dtype=np.float64)
        if self.b.shape[0] != self.n:
            raise ValueError(f"b has length {self.b.shape[0]}, expected {self.n}")
        self.strategy = strategy
        self.preconditioner = preconditioner
        self.scenario = scenario
        self.matrix_name = matrix_name
        #: The runtime cell.  All cells share one deterministic list
        #: scheduler for the simulated timeline and reduce in fixed page
        #: order, so every (scheduler x placement x clock) cell produces
        #: bit-identical iterates, solve times and recovery decisions.
        spec = resolve_runtime_spec(cfg.scheduler, cfg.placement, cfg.clock,
                                    cfg.ranks)
        #: Runs the numerical kernels (placement axis).
        self.engine = make_kernel_engine(self.blocked, spec)
        #: Owns the iteration structure — builds, times and re-enacts it —
        #: and the graph executor it runs on (scheduler + clock axes).
        self.planner = CGPlanner(
            self.blocked, cfg, strategy=strategy,
            preconditioned=preconditioner is not None, spec=spec,
            executor=make_executor(spec, cfg.num_workers, cfg.cost_model,
                                   cfg.max_threads, cfg.pace),
            engine=self.engine, compiled=compiled)
        if self.strategy is not None and hasattr(self.strategy, "work_scale"):
            # Conflict fallbacks recompute a full vector; charge them at the
            # same simulated problem scale as the solver's compute tasks.
            self.strategy.work_scale = cfg.work_scale

    # ==================================================================
    # public API
    # ==================================================================
    def close(self) -> None:
        """Release the runtime's real resources (idempotent)."""
        self.planner.close()
        self.engine.close()

    def __enter__(self) -> "ResilientCG":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def solve(self, x0: Optional[np.ndarray] = None,
              ideal_time: Optional[float] = None) -> SolveResult:
        """Run the solver; returns the solution, record, trace and stats."""
        cfg = self.config
        planner = self.planner
        planner.begin_solve()
        memory = MemoryManager()
        vectors = self._allocate_vectors(memory, x0)
        state = CGState(
            blocked=self.blocked, b=self.b, vectors=vectors, memory=memory,
            residual_relation=ResidualRelation(self.blocked, self.b),
            matvec_relation=MatVecRelation(self.blocked),
            preconditioner=self.preconditioner)

        b_norm = float(np.linalg.norm(self.b))
        if b_norm == 0.0:
            record = ConvergenceRecord(converged=True, iterations=0,
                                       solve_time=0.0, final_residual=0.0,
                                       method=self._method_name(),
                                       matrix=self.matrix_name)
            return SolveResult(x=np.zeros(self.n), record=record,
                               trace=ExecutionTrace(cfg.num_workers),
                               stats=RecoveryStats(),
                               window_summary=planner.monitor.summary())

        run = _Run(state, deque(self._build_injection_schedule(memory,
                                                               ideal_time)),
                   b_norm, cfg.num_workers)
        stats = run.stats
        faults_injected = len(run.pending)

        t_iter_ideal = planner.ideal_iteration_time()
        if isinstance(self.strategy, CheckpointStrategy):
            if self.strategy.interval is None:
                mtbe = self._scenario_mtbe(ideal_time)
                self.strategy.configure_interval(
                    mtbe, t_iter_ideal,
                    self.strategy.checkpoint_bytes(self.n) * cfg.work_scale)
        if self.strategy is not None:
            self.strategy.on_solve_start(state)

        x = vectors["x"].array
        g = vectors["g"].array
        q = vectors["q"].array
        engine = self.engine
        engine.residual(x, self.b, g)
        run.rel = self._relative_residual(run)
        # The iteration-0 entry is always recorded; _close_iteration
        # records the others, under cfg.record_history.
        run.history.append(0, run.clock, run.rel)
        run.converged = run.rel <= cfg.tolerance
        iteration = 0

        while not run.converged and iteration < cfg.max_iterations:
            iteration += 1
            it = self._begin_iteration(run, iteration)
            d_cur = vectors[it.this_d].array
            d_prev = vectors[it.last_d].array

            # ---------------- point A: before rho ---------------------------
            state.current_d_name, state.previous_d_name = it.last_d, it.this_d
            skip_rho = it.late["g"] | self._check_point(run, it, "A")
            if it.restart:
                self._abort_to_restart(run, it, unprocessed="BCD")
                continue

            # ---------------- rho / beta ------------------------------------
            z = self.preconditioner.apply(g) if self.preconditioner else g
            rho = engine.dot(g, z, skip_rho)
            stats.contributions_skipped += len(skip_rho)
            # Unpreconditioned, z is g: the same reduction, the same bits.
            norm_g_sq = rho if z is g else engine.dot(g, g, skip_rho)
            rel_recursive = math.sqrt(max(norm_g_sq, 0.0)) / b_norm
            if rel_recursive <= cfg.tolerance:
                true_rel = self._true_relative_residual(run)
                self._advance_clock(run, it)
                if true_rel <= cfg.tolerance * 10:
                    run.converged = True
                    self._close_iteration(run, it, rel=true_rel)
                    break
                self._resync(run)
                self._close_iteration(run, it)
                continue

            beta = (0.0 if (run.restart_next or run.rho_old == 0.0)
                    else rho / run.rho_old)
            state.scalars["beta"] = beta
            run.restart_next = False

            # ---------------- d update (double buffered) --------------------
            state.current_d_name, state.previous_d_name = it.this_d, it.last_d
            engine.update_direction(d_cur, z, beta, d_prev)
            memory.overwrite_vector(it.this_d)

            # ---------------- point B: before the mat-vec -------------------
            self._check_point(run, it, "B", z=z, beta=beta)
            if it.restart:
                self._abort_to_restart(run, it, unprocessed="CD")
                continue

            # ---------------- q = A d (halo exchange of d in rank mode) -----
            engine.spmv(d_cur, q)
            memory.overwrite_vector("q")

            # ---------------- point C: before alpha -------------------------
            skip_c = self._check_point(run, it, "C")
            if it.restart:
                self._abort_to_restart(run, it, unprocessed="D")
                continue

            skip_dq = it.late["d"] | it.late["q"] | skip_c
            dq = engine.dot(d_cur, q, skip_dq)
            stats.contributions_skipped += len(skip_dq)
            if dq <= 0.0:
                # Breakdown after unrecovered corruption: resynchronise.
                self._resync(run)
                self._advance_clock(run, it)
                self._close_iteration(run, it)
                continue
            alpha = rho / dq

            # ---------------- x and g updates --------------------------------
            # (pages whose update must be deferred are skipped)
            engine.axpy(x, alpha, d_cur, it.late["x"] | it.late["d"])
            engine.axpy(g, -alpha, q, it.late["g"] | it.late["q"])
            run.rho_old = rho

            # ---------------- point D: end of the iteration ------------------
            self._check_point(run, it, "D")
            self._repair_deferred(run, it, alpha)

            if it.checkpoint:
                self.strategy.save(state, iteration, {"rho_old": run.rho_old})
                stats.checkpoints_written += 1

            self._advance_clock(run, it)
            if it.restart:
                self._restart(run, it)
            self._close_iteration(run, it)
            if run.rel <= cfg.tolerance:
                true_rel = self._true_relative_residual(run)
                if true_rel <= cfg.tolerance * 10:
                    run.converged = True
                    run.rel = true_rel
                else:
                    self._resync(run)

        record = ConvergenceRecord(
            converged=run.converged, iterations=iteration,
            solve_time=run.clock,
            final_residual=self._true_relative_residual(run),
            history=run.history,
            method=self._method_name(), matrix=self.matrix_name,
            faults_injected=faults_injected,
            faults_detected=memory.fault_count(),
            restarts=stats.restarts, rollbacks=stats.rollbacks)
        return SolveResult(x=np.array(x, copy=True), record=record,
                           trace=run.trace, stats=stats,
                           ideal_iteration_time=t_iter_ideal,
                           wall_clock=planner.wall_clock,
                           wall_trace=planner.wall_trace,
                           window_summary=planner.monitor.summary(),
                           rank_stats=engine.comm_stats())

    # ==================================================================
    # construction helpers
    # ==================================================================
    def _method_name(self) -> str:
        base = "PCG" if self.preconditioner is not None else "CG"
        if self.strategy is None:
            return f"{base}-ideal"
        return f"{base}-{self.strategy.name}"

    def _allocate_vectors(self, memory: MemoryManager,
                          x0: Optional[np.ndarray]) -> Dict[str, PagedVector]:
        vectors: Dict[str, PagedVector] = {}
        for name in self.PROTECTED:
            vec = PagedVector(self.n, name=name, page_size=self.config.page_size)
            if name == "x" and x0 is not None:
                vec.fill_from(np.asarray(x0, dtype=np.float64))
            vectors[name] = memory.register(vec)
        return vectors

    def _scenario_mtbe(self, ideal_time: Optional[float]) -> float:
        if (self.scenario is None or self.scenario.is_fault_free
                or ideal_time is None or self.scenario.normalized_rate <= 0):
            return float("inf")
        return ideal_time / self.scenario.normalized_rate

    def _build_injection_schedule(self, memory: MemoryManager,
                                  ideal_time: Optional[float]) -> List[Injection]:
        if self.scenario is None or self.scenario.is_fault_free:
            return []
        if self.scenario.fixed_injections:
            return sorted(self.scenario.fixed_injections, key=lambda i: i.time)
        if ideal_time is None:
            raise ValueError("a rate-based ErrorScenario needs ideal_time to "
                             "normalise the MTBE (pass ideal_time to solve())")
        horizon = ideal_time * HORIZON_FACTOR
        return self.scenario.schedule(ideal_time, horizon, memory.page_universe())

    # ==================================================================
    # the iteration life cycle: begin, advance the clock, close
    # ==================================================================
    def _begin_iteration(self, run: _Run, number: int) -> _Iteration:
        """Timing pass 1, then this iteration's faults by check point."""
        checkpoint = (isinstance(self.strategy, CheckpointStrategy)
                      and self.strategy.should_checkpoint(number))
        pending = run.pending
        timing = self.planner.time_iteration(
            run.clock, checkpoint,
            next_fault=pending[0].time if pending else math.inf)
        it = _Iteration(number, checkpoint, run.clock, timing)
        horizon_end = run.clock + timing.makespan
        while pending and pending[0].time <= horizon_end:
            inj = pending.popleft()
            it.had_faults = True
            point = next((p for p in "ABC" if inj.time <= it.time_of(p)), "D")
            it.by_point[point].append(inj)
        return it

    def _advance_clock(self, run: _Run, it: _Iteration) -> None:
        """Timing pass 2: advance the clock past this iteration, charging
        the recovery work its faults actually caused.

        This is the single per-iteration choke point, so the real
        re-enactment also runs here — with the *actual* recovery
        durations when faults enlarged the recovery tasks, so the
        measured wall clock and state shares account for the same
        recovery work the simulated timeline charges.
        """
        planner = self.planner
        extra_work = sum(it.recovery_work.values())
        disturbed = it.had_faults or extra_work != 0.0
        durations: Optional[Sequence[float]] = None
        if disturbed and planner.uses_recovery_tasks:
            durations = planner.recovery_durations(it.checkpoint,
                                                   it.recovery_work)
        if planner.spec.runs_reenactment:
            planner.reenact(it.number, it.checkpoint, run.state, it.this_d,
                            durations)
        if not disturbed:
            run.trace.accumulate(it.timing.trace)
            run.clock = it.start + it.timing.makespan
        elif durations is not None:
            sched = planner.retime(it.start, it.checkpoint, durations)
            run.trace.accumulate(sched.trace)
            run.clock = it.start + sched.makespan + it.fault_service
        else:
            # Signal-handler methods (Lossy/ckpt/Trivial): the recovery work
            # is done in the handler, serialising the faulting worker.
            run.trace.accumulate(it.timing.trace)
            run.clock = (it.start + it.timing.makespan + extra_work
                         + it.fault_service)

    def _close_iteration(self, run: _Run, it: _Iteration,
                         rel: Optional[float] = None) -> None:
        """Record where the iteration ended: the relative residual
        (recursive ``||g|| / ||b||`` unless the true one is given) and,
        under ``record_history``, its history entry."""
        run.rel = self._relative_residual(run) if rel is None else rel
        if self.config.record_history:
            run.history.append(it.number, run.clock, run.rel)

    def _relative_residual(self, run: _Run) -> float:
        """``||g|| / ||b||`` of the recursive residual."""
        g = run.state.vectors["g"].array
        return float(np.linalg.norm(g) / run.b_norm)

    def _true_relative_residual(self, run: _Run) -> float:
        """``||b - A x|| / ||b||`` recomputed from the iterate."""
        x = run.state.vectors["x"].array
        return float(np.linalg.norm(self.b - self.A @ x) / run.b_norm)

    def _resync(self, run: _Run) -> None:
        """Recompute the residual from the iterate; the Krylov recurrence
        restarts from it (``beta = 0`` next iteration)."""
        vectors = run.state.vectors
        self.engine.residual(vectors["x"].array, self.b, vectors["g"].array)
        run.restart_next = True
        run.rho_old = 0.0

    def _restart(self, run: _Run, it: _Iteration) -> None:
        """Apply the restart/rollback a recovery strategy asked for."""
        if it.rolled_back:
            run.stats.rollbacks += 1
        self._resync(run)
        run.state.memory.overwrite_vector("g")

    def _abort_to_restart(self, run: _Run, it: _Iteration,
                          unprocessed: str) -> None:
        """Cut the iteration short at a check point that asked for a
        restart; the ``unprocessed`` points' injections go back to the
        front of the schedule.

        They were taken from the front (all at or before the iteration's
        horizon, everything still pending after it), so this equals a
        stable ``sorted(unprocessed + pending, key=time)``.
        """
        back = [inj for point in unprocessed for inj in it.by_point[point]]
        run.pending.extendleft(reversed(sorted(back,
                                               key=lambda inj: inj.time)))
        self._restart(run, it)
        self._advance_clock(run, it)
        self._close_iteration(run, it)
        run.converged = run.rel <= self.config.tolerance

    # ==================================================================
    # fault handling
    # ==================================================================
    def _check_point(self, run: _Run, it: _Iteration, point: str,
                     z: Optional[np.ndarray] = None,
                     beta: float = 0.0) -> FrozenSet[int]:
        """Handle one check point's faults and absorb what that cost into
        the iteration; returns the pages whose contribution to the
        point's reduction must be skipped."""
        run.state.point = point
        outcome = self._handle_point(run, it, point, z, beta)
        it.absorb(point, outcome)
        return outcome.skip

    def _handle_point(self, run: _Run, it: _Iteration, point: str,
                      z: Optional[np.ndarray], beta: float) -> PointOutcome:
        """Materialise and handle the faults assigned to one check point."""
        injections = it.by_point[point]
        if not injections:
            return _NO_FAULTS
        state, stats = run.state, run.stats
        memory = state.memory
        monitor = self.planner.monitor
        this_d = it.this_d
        detect_time = it.time_of(point)
        work = service = 0.0
        in_time: List[Tuple[str, int]] = []
        for inj in injections:
            memory.poison(inj.vector, inj.page, time=inj.time,
                          iteration=it.number)
            event = memory.touch(inj.vector, inj.page, time=detect_time)
            if event is None:
                continue
            service += FAULT_SERVICE_TIME
            if self._fault_is_late(point, inj, it):
                key = "d" if inj.vector == this_d else inj.vector
                if key in it.late:
                    it.late[key].add(inj.page)
                    memory.mark_recovered(inj.vector, inj.page)
                    stats.contributions_skipped += 1
                    monitor.note_due(inj.vector, inj.page, inj.time,
                                     point, in_window=True)
                    continue
            monitor.note_due(inj.vector, inj.page, inj.time,
                             point, in_window=False)
            in_time.append((inj.vector, inj.page))

        if not in_time:
            return PointOutcome(service=service)

        if self.strategy is None:
            for vector, page in in_time:
                state.vectors[vector].zero_page(page)
                memory.mark_recovered(vector, page)
            return PointOutcome(service=service)

        # Point B: a lost page of the freshly updated d is rebuilt from the
        # linear-combination relation d = z + beta * d_prev (Table 1, middle
        # row) because q does not yet reflect the new d.
        if point == "B" and z is not None:
            remaining: List[Tuple[str, int]] = []
            for vector, page in in_time:
                if vector == this_d:
                    def rebuild(page=page) -> None:
                        d_vec = state.vectors[this_d]
                        sl = d_vec.page_slice(page)
                        d_prev = state.vectors[state.previous_d_name].array
                        d_vec.set_page(page, z[sl] + beta * d_prev[sl])
                    self.engine.run_on_owner(page, rebuild)
                    memory.mark_recovered(this_d, page)
                    stats.pages_recovered += 1
                    sl = state.vectors[this_d].page_slice(page)
                    work += self.config.cost_model.axpy_block(
                        sl.stop - sl.start)
                else:
                    remaining.append((vector, page))
            in_time = remaining
            if not in_time:
                return PointOutcome(work=work, service=service)

        # Recovery executes on the rank owning the first corrupted page
        # (rank engines; local engines run inline).  The whole batch goes
        # to one rank because simultaneous losses may need a *coupled*
        # solve over the union of the pages (Section 2.4 case 1), which
        # cannot be split along ownership lines; for the common
        # single-page event this is exactly the paper's owner-local rule.
        outcome = self.engine.run_on_owner(
            in_time[0][1],
            lambda: self.strategy.handle_lost_pages(state, in_time,
                                                    it.number))
        stats.pages_recovered += len(outcome.recovered)
        stats.pages_unrecoverable += len(outcome.unrecoverable)
        stats.recovery_work_time += outcome.work_time
        if outcome.restart_required:
            stats.restarts += 1
        # Only the recovery-task methods skip reduction contributions.
        skip = (frozenset(page for _, page in outcome.unrecoverable)
                if self.planner.uses_recovery_tasks else frozenset())
        return PointOutcome(work=work + outcome.work_time, service=service,
                            restart=outcome.restart_required,
                            rollback=outcome.rolled_back, skip=skip)

    def _fault_is_late(self, point: str, inj: Injection,
                       it: _Iteration) -> bool:
        """AFEIR vulnerability window: repaired too late for the next scalar?"""
        if (not self.planner.uses_recovery_tasks
                or self.strategy.recovery_in_critical_path):
            return False
        if point == "A" and inj.vector == "g":
            return inj.time > it.time_of("r2")
        if point == "C" and inj.vector in (it.this_d, "q"):
            return inj.time > it.time_of("r1")
        return False

    def _repair_deferred(self, run: _Run, it: _Iteration,
                         alpha: float) -> None:
        """Exactly repair AFEIR late pages at point D and redo skipped updates.

        The simulated recovery work is charged to ``r3``; a related-data
        conflict additionally asks for a restart of the Krylov recurrence.
        """
        late = it.late
        if not any(late.values()):
            return
        state, stats, this_d = run.state, run.stats, it.this_d
        cm = self.config.cost_model
        work = 0.0
        vectors = state.vectors
        blocked = state.blocked
        x = vectors["x"].array
        g = vectors["g"].array
        d_cur = vectors[this_d].array
        q = vectors["q"].array
        matvec, residual = state.matvec_relation, state.residual_relation

        def spmv_cost(page: int) -> float:
            return cm.spmv_block(blocked.nnz_of_block(page))

        def solve_cost(page: int) -> float:
            return cm.block_solve(blocked.block_size(page),
                                  factorized=blocked.has_cached_factor(page))

        # q first (needed to repair d), then d (+ redo the x update), then g,
        # then x; all relations hold exactly at the end of the iteration.
        # One row per vector: the relation that recovers a page, the update
        # of the current iteration that skipped it (target array, factor),
        # the cost charged, and the vector lost *with* it in a related-data
        # conflict.  The second row of each pair owns the conflict: it
        # blanks its page and resynchronises the residual afterwards so
        # the invariants hold.
        repairs = (
            ("q", "q", lambda p: matvec.recover_lhs_page(p, d_cur),
             (g, -alpha), spmv_cost, "d", False),
            ("d", this_d, lambda p: matvec.recover_rhs_page(p, q, d_cur),
             (x, alpha), solve_cost, "q", True),
            ("g", "g", lambda p: residual.recover_residual_page(p, x),
             None, spmv_cost, "x", False),
            ("x", "x", lambda p: residual.recover_iterate_page(p, g, x),
             None, solve_cost, "g", True),
        )
        need_residual_resync = False
        for key, name, recover, redo, cost, related, owns_conflict in repairs:
            vector = vectors[name]
            for page in sorted(late[key]):
                if page in late[related]:
                    if owns_conflict:
                        vector.zero_page(page)
                        state.memory.mark_recovered(name, page)
                        state.memory.mark_recovered(related, page)
                        stats.pages_unrecoverable += 1
                        need_residual_resync = True
                    continue

                def repair(page=page, vector=vector, recover=recover,
                           redo=redo) -> None:
                    values = recover(page)
                    vector.set_page(page, values)
                    if redo is not None:
                        target, factor = redo
                        target[vector.page_slice(page)] += factor * values
                # Each relation-based repair executes on the rank owning
                # the page (the owner holds the strip of A and the slices
                # the relation reads); local engines run it inline.
                self.engine.run_on_owner(page, repair)
                state.memory.mark_recovered(name, page)
                work += cost(page)
                stats.pages_recovered += 1
        if need_residual_resync:
            self.engine.residual(x, self.b, g)
            work += cm.kernel_time(2.0 * self.A.nnz,
                                   12.0 * self.A.nnz + 8.0 * self.n) \
                * self.config.work_scale
        for key in late:
            late[key].clear()
        stats.recovery_work_time += work
        it.recovery_work["r3"] += work
        it.restart |= need_residual_resync
