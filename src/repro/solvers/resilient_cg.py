"""Resilient, task-decomposed Conjugate Gradient (Sections 3.3 and 5).

This is the paper's implementation target: a page-blocked CG (optionally
block-Jacobi preconditioned) whose iterations are strip-mined into tasks
executed by the discrete-event runtime, with

* double-buffered search direction ``d`` (Listing 2), so the in-place
  update never destroys the only copy of recoverable data,
* a per-page skip protocol for reduction contributions of pages known to
  be lost (Section 3.3.2),
* fault injection according to an :class:`~repro.faults.scenarios.ErrorScenario`,
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
from functools import partial
from typing import (Callable, Dict, FrozenSet, Iterator, List, NamedTuple,
                    Optional, Sequence, Set, Tuple)

import numpy as np
import scipy.sparse as sp

from repro.analysis.convergence import ConvergenceRecord, ResidualHistory
from repro.core.checkpoint import CheckpointStrategy
from repro.core.relations import (LinearCombinationRelation,
                                  MatVecRelation, ResidualRelation)
from repro.core.strategy import RecoveryStats, RecoveryStrategy
from repro.faults.injector import Injection, InjectionQueue
from repro.faults.scenarios import ErrorScenario
from repro.matrices.blocked import PageBlockedMatrix
from repro.matrices.sparse import SparseOperator
from repro.memory.manager import MemoryManager
from repro.memory.pages import PagedVector
from repro.precond.base import Preconditioner
from repro.runtime.cost_model import FAULT_SERVICE_TIME
from repro.runtime.kernels import make_kernel_engine
from repro.runtime.runtime import make_executor
from repro.runtime.scheduler import Timeline
from repro.solvers.cg_plan import (COVERING_TASK, LATE_WINDOWS,
                                   RECOVERY_TASKS, CGPlanner, IterationTiming)
from repro.solvers.cg_types import CGState, SolveResult, SolverConfig

#: Injection schedule horizon, as a multiple of the ideal solve time.
HORIZON_FACTOR = 50.0

#: Snapshots a :class:`PrefixTape` holds at most.
TAPE_LENGTH = 8


class PointOutcome(NamedTuple):
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


def _owner_runs(pages: Sequence[int], conflicts: Set[int],
                owner_of: Callable[[int], int]) -> Iterator[List[int]]:
    """Split sorted ``pages``, in order, into runs: a page in
    ``conflicts`` alone, the others in maximal runs of consecutive pages
    with one owner."""
    run: List[int] = []
    for page in pages:
        if page in conflicts:
            if run:
                yield run
                run = []
            yield [page]
        elif run and owner_of(page) != owner_of(run[0]):
            yield run
            run = [page]
        else:
            run.append(page)
    if run:
        yield run


def _repair_pages(pages: Sequence[int], vector: PagedVector,
                  recover: Callable[[int], np.ndarray],
                  redo: Optional[Tuple[np.ndarray, float]]) -> None:
    """Recover ``pages`` of ``vector`` in order, each from its relation,
    and redo the update of the iteration that skipped it."""
    for page in pages:
        values = recover(page)
        vector.set_page(page, values)
        if redo is not None:
            target, factor = redo
            target[vector.page_slice(page)] += factor * values


_NO_SKIP: FrozenSet[int] = frozenset()


class _Iteration:
    """One iteration's timing, its faults and what handling them cost.

    An iteration no injection reaches (``had_faults`` false) has no
    ``by_point``, ``late`` or ``recovery_work``: nothing reads them."""

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
        self.had_faults = False
        self.fault_service = 0.0
        self.restart = False
        self.rolled_back = False

    def disturb(self) -> Dict[str, List[Injection]]:
        """Give the iteration its fault containers, as injections reach
        it; returns its ``by_point``."""
        self.had_faults = True
        #: The injections each check point materialises.
        self.by_point = {"A": [], "B": [], "C": [], "D": []}
        #: AFEIR pages hit too late for their scalar: contribution
        #: skipped, update deferred, repaired exactly at point D.
        self.late = {"g": set(), "d": set(), "q": set()}
        #: Simulated work added to each recovery task by this
        #: iteration's faults.
        self.recovery_work = dict.fromkeys(RECOVERY_TASKS, 0.0)
        return self.by_point

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

    __slots__ = ("state", "stats", "pending", "b_norm", "history",
                 "timelines", "clock", "rel", "true_rel", "rho_old",
                 "restart_next", "converged")

    def __init__(self, state: CGState, pending: InjectionQueue,
                 b_norm: float):
        self.state = state
        self.stats = RecoveryStats()
        #: Time-sorted injections; each iteration takes its batch off the
        #: front.
        self.pending = pending
        self.b_norm = b_norm
        self.history = ResidualHistory()
        #: The timeline of the schedule each iteration advanced the clock
        #: by, in order: what ``SolveResult.trace`` is derived from.
        self.timelines: List[Timeline] = []
        self.clock = 0.0
        self.rel = math.inf
        #: The true relative residual of the final iterate, once a
        #: convergence check computed it (``None`` until then).
        self.true_rel: Optional[float] = None
        self.rho_old = 0.0
        self.restart_next = True   # first iteration behaves like a restart
        self.converged = False


class _Snapshot(NamedTuple):
    """A solve at the start of an iteration of its fault-free prefix."""

    #: Iterations completed.
    iteration: int
    clock: float
    rel: float
    rho_old: float
    restart_next: bool
    #: Copies of ``ResilientCG.PROTECTED``, in that order.
    vectors: Tuple[np.ndarray, ...]
    timelines: Tuple[Timeline, ...]
    #: ``(iteration, time, residual)`` of each history entry.
    history: Tuple[Tuple[int, float, float], ...]
    checkpoints_written: int
    #: ckpt's saved checkpoint (``None`` for the other methods).
    checkpoint: Optional[Dict[str, np.ndarray]]


class PrefixTape:
    """Snapshots of one fault-free trajectory, taken at the start of
    every ``stride``-th iteration, for a solve to start from instead of
    iteration 0.

    Every iteration that ends before a solve's first injection is
    undisturbed and advances the clock by the same fault-free timing (a
    checkpoint iteration is re-timed at the same clock), so that stretch
    is one trajectory for every solve of a key (problem, knobs, method,
    checkpoint interval).  A snapshot is recorded only while every
    iteration so far took that shared timing or was an undisturbed
    checkpoint, which puts its clock strictly before the recording
    solve's first injection, and a solve resumes from the latest one
    strictly before its own: nothing it returns moves by a bit.  At most
    :data:`TAPE_LENGTH` snapshots: when one more is due, every other one
    is dropped and the stride doubles.  A snapshot is never changed once
    recorded, so whoever recorded it, it is safe to resume from.
    """

    def __init__(self) -> None:
        self.snapshots: List[_Snapshot] = []
        self.stride = 1

    def resume_point(self, first_fault: float) -> Optional[_Snapshot]:
        """The latest snapshot whose clock is before ``first_fault``."""
        before = [s for s in self.snapshots if s.clock < first_fault]
        return before[-1] if before else None

    def due(self, iteration: int) -> bool:
        """Whether the snapshot after ``iteration`` iterations extends
        the tape; a full tape first halves itself."""
        snapshots = self.snapshots
        last = snapshots[-1].iteration if snapshots else 0
        if iteration <= last or iteration % self.stride:
            return False
        if len(snapshots) == TAPE_LENGTH:
            del snapshots[::2]
            self.stride *= 2
        return iteration % self.stride == 0


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
                 compiled: Optional[dict] = None,
                 tapes: Optional[Dict[Optional[int], PrefixTape]] = None):
        """``compiled`` is the table iteration shapes are compiled into
        and read from (see :mod:`repro.solvers.cg_plan`): a campaign
        hands every solver its cache's, so a process compiles each shape
        once; a solver handed none compiles for itself.  ``tapes`` are
        the :class:`PrefixTape` of this problem, configuration and
        method, by checkpoint interval (``None`` but for ckpt): a
        campaign hands every trial its cache's; a solver handed none, or
        in a cell other than list/local/simulated, keeps no tape."""
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
        spec = cfg.runtime_spec()
        #: Runs the numerical kernels (placement axis).
        self.engine = make_kernel_engine(self.blocked, spec)
        #: Owns the iteration structure — builds, times and re-enacts it —
        #: and the plan executor it runs on (scheduler + clock axes).
        self.planner = CGPlanner(
            self.blocked, cfg, strategy=strategy,
            preconditioned=preconditioner is not None,
            executor=make_executor(spec, cfg.num_workers, cfg.cost_model,
                                   cfg.pace),
            engine=self.engine, compiled=compiled)
        #: What every iteration asks of the strategy and the cell.
        self._checkpointing = isinstance(strategy, CheckpointStrategy)
        self._reenacts = spec.runs_reenactment
        #: Only this cell's every output is a function of the numerics
        #: and the simulated clock alone.
        self._tapes = (tapes if not self._reenacts
                       and spec.placement == "local" else None)
        #: The planner begins its first solve when it is built.
        self._solved = False

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
        """Run the solver; returns the solution, record, trace and stats.

        Handed ``tapes`` and no ``x0``, the solve starts from the latest
        snapshot of its :class:`PrefixTape` strictly before its first
        injection and records the snapshots due before it; the result
        is bit for bit that of a solve from iteration 0."""
        cfg = self.config
        planner = self.planner
        if self._solved:
            planner.begin_solve()
        self._solved = True
        memory = MemoryManager()
        vectors = self._allocate_vectors(memory, x0)
        state = CGState(
            blocked=self.blocked, b=self.b, vectors=vectors, memory=memory,
            residual_relation=ResidualRelation(self.blocked, self.b),
            matvec_relation=MatVecRelation(self.blocked), config=cfg)

        b_norm = float(np.linalg.norm(self.b))
        if b_norm == 0.0:
            record = ConvergenceRecord(converged=True, iterations=0,
                                       solve_time=0.0, final_residual=0.0,
                                       method=self._method_name(),
                                       matrix=self.matrix_name)
            return SolveResult(x=np.zeros(self.n), record=record,
                               stats=RecoveryStats(),
                               num_workers=cfg.num_workers,
                               window_summary=planner.monitor.summary())

        run = _Run(state, self._build_injection_schedule(memory, ideal_time),
                   b_norm)
        stats = run.stats
        faults_injected = len(run.pending)

        t_iter_ideal = planner.ideal_iteration_time()
        if self._checkpointing:
            if self.strategy.interval is None:
                self.strategy.configure_interval(
                    self._scenario_mtbe(ideal_time), t_iter_ideal,
                    planner.checkpoint_write_time)
        if self.strategy is not None:
            self.strategy.on_solve_start(state)
        tape = resume = None
        if self._tapes is not None and x0 is None:
            tape = self._tapes.setdefault(
                self.strategy.interval if self._checkpointing else None,
                PrefixTape())
            resume = tape.resume_point(run.pending.next_time())
            shared = planner.time_iteration(0.0, False)  # fault-free timing

        x = vectors["x"].array
        g = vectors["g"].array
        q = vectors["q"].array
        engine = self.engine
        if resume is None:
            engine.residual(x, self.b, g)
            run.rel = self._relative_residual(run)
            # The iteration-0 entry is always recorded; _close_iteration
            # records the others, under cfg.record_history.
            run.history.append(0, run.clock, run.rel)
            run.converged = run.rel <= cfg.tolerance
            iteration = 0
        else:
            iteration = self._resume(run, resume)

        # An iteration no injection reaches (``not disturbed``) has no
        # check point to handle, no late page and nothing to repair.
        while not run.converged and iteration < cfg.max_iterations:
            if tape is not None and tape.due(iteration):
                tape.snapshots.append(self._snapshot(run, iteration))
            iteration += 1
            it = self._begin_iteration(run, iteration)
            disturbed = it.had_faults
            # The fault-free prefix ends with the first iteration that
            # leaves the shared timing (undisturbed checkpoints aside).
            if tape is not None and not (it.timing is shared or (
                    it.checkpoint and not disturbed)):
                tape = None
            d_cur = vectors[it.this_d].array
            d_prev = vectors[it.last_d].array

            # ---------------- point A: before rho ---------------------------
            state.current_d_name, state.previous_d_name = it.last_d, it.this_d
            skip_rho = _NO_SKIP
            if disturbed:
                skip_rho = it.late["g"] | self._check_point(run, it, "A")
                if it.restart:
                    self._abort_to_restart(run, it, unprocessed="BCD")
                    continue
                stats.contributions_skipped += len(skip_rho)

            # ---------------- rho / beta ------------------------------------
            z = self.preconditioner.apply(g) if self.preconditioner else g
            rho = engine.dot(g, z, skip_rho)
            # Unpreconditioned, z is g: the same reduction, the same bits.
            norm_g_sq = rho if z is g else engine.dot(g, g, skip_rho)
            rel_recursive = math.sqrt(max(norm_g_sq, 0.0)) / b_norm
            if rel_recursive <= cfg.tolerance:
                true_rel = self._true_relative_residual(run)
                self._advance_clock(run, it)
                if true_rel <= cfg.tolerance * 10:
                    run.converged = True
                    run.true_rel = true_rel
                    self._close_iteration(run, it, rel=true_rel)
                    break
                self._resync(run)
                self._close_iteration(run, it)
                continue

            beta = (0.0 if (run.restart_next or run.rho_old == 0.0)
                    else rho / run.rho_old)
            run.restart_next = False

            # ---------------- d update (double buffered) --------------------
            state.current_d_name, state.previous_d_name = it.this_d, it.last_d
            engine.update_direction(d_cur, z, beta, d_prev)
            memory.overwrite_vector(it.this_d)

            # ---------------- point B: before the mat-vec -------------------
            if disturbed:
                self._check_point(run, it, "B", z=z, beta=beta)
                if it.restart:
                    self._abort_to_restart(run, it, unprocessed="CD")
                    continue

            # ---------------- q = A d (halo exchange of d in rank mode) -----
            engine.spmv(d_cur, q)
            memory.overwrite_vector("q")

            # ---------------- point C: before alpha -------------------------
            skip_dq = skip_x = skip_g = _NO_SKIP
            if disturbed:
                skip_c = self._check_point(run, it, "C")
                if it.restart:
                    self._abort_to_restart(run, it, unprocessed="D")
                    continue
                late = it.late
                skip_dq = late["d"] | late["q"] | skip_c
                stats.contributions_skipped += len(skip_dq)
                # (pages whose x / g update must be deferred are skipped)
                skip_x, skip_g = late["d"], late["g"] | late["q"]

            dq = engine.dot(d_cur, q, skip_dq)
            if dq <= 0.0:
                # Breakdown after unrecovered corruption: resynchronise.
                self._resync(run)
                self._advance_clock(run, it)
                self._close_iteration(run, it)
                continue
            alpha = rho / dq

            # ---------------- x and g updates --------------------------------
            engine.axpy(x, alpha, d_cur, skip_x)
            engine.axpy(g, -alpha, q, skip_g)
            run.rho_old = rho

            # ---------------- point D: end of the iteration ------------------
            if disturbed:
                self._check_point(run, it, "D")
                self._repair_deferred(run, it, alpha)

            if it.checkpoint:
                self.strategy.save(state)
                stats.checkpoints_written += 1

            self._advance_clock(run, it)
            if it.restart:
                self._restart(run, it)
            self._close_iteration(run, it)
            if run.rel <= cfg.tolerance:
                true_rel = self._true_relative_residual(run)
                if true_rel <= cfg.tolerance * 10:
                    run.converged = True
                    run.rel = run.true_rel = true_rel
                else:
                    self._resync(run)

        # A convergence check that ended the loop left ``x`` as it found it.
        final_residual = (self._true_relative_residual(run)
                          if run.true_rel is None else run.true_rel)
        record = ConvergenceRecord(
            converged=run.converged, iterations=iteration,
            solve_time=run.clock, final_residual=final_residual,
            history=run.history,
            method=self._method_name(), matrix=self.matrix_name,
            faults_injected=faults_injected,
            faults_detected=memory.fault_count(),
            restarts=stats.restarts, rollbacks=stats.rollbacks)
        return SolveResult(x=np.array(x, copy=True), record=record,
                           stats=stats, num_workers=cfg.num_workers,
                           timelines=run.timelines,
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
                                  ideal_time: Optional[float]) -> InjectionQueue:
        scenario = self.scenario
        if scenario is None or scenario.is_fault_free:
            return InjectionQueue()
        if ideal_time is None and not scenario.fixed_injections:
            raise ValueError("a rate-based ErrorScenario needs ideal_time to "
                             "normalise the MTBE (pass ideal_time to solve())")
        # A fixed schedule reads neither the ideal time nor the horizon.
        horizon = math.inf if ideal_time is None else ideal_time * HORIZON_FACTOR
        return scenario.queue(ideal_time, horizon, memory.page_universe())

    # ==================================================================
    # the iteration life cycle: begin, advance the clock, close
    # ==================================================================
    def _begin_iteration(self, run: _Run, number: int) -> _Iteration:
        """Timing pass 1, then this iteration's faults by check point."""
        checkpoint = (self._checkpointing
                      and self.strategy.should_checkpoint(number))
        pending = run.pending
        next_fault = pending.next_time()
        timing = self.planner.time_iteration(run.clock, checkpoint,
                                             next_fault=next_fault)
        it = _Iteration(number, checkpoint, run.clock, timing)
        horizon_end = run.clock + timing.makespan
        if next_fault <= horizon_end:
            by_point = it.disturb()
            at_a, at_b, at_c = it.time_of("A"), it.time_of("B"), it.time_of("C")
            for inj in pending.take_through(horizon_end):
                t = inj.time
                by_point["A" if t <= at_a else "B" if t <= at_b
                         else "C" if t <= at_c else "D"].append(inj)
        return it

    def _snapshot(self, run: _Run, iteration: int) -> _Snapshot:
        """The solve at the start of the iteration after ``iteration``."""
        vectors, history = run.state.vectors, run.history
        return _Snapshot(
            iteration, run.clock, run.rel, run.rho_old, run.restart_next,
            tuple(vectors[name].array.copy() for name in self.PROTECTED),
            tuple(run.timelines),
            tuple(zip(history.iterations, history.times, history.residuals,
                      strict=True)),
            run.stats.checkpoints_written,
            self.strategy.saved if self._checkpointing else None)

    def _resume(self, run: _Run, snapshot: _Snapshot) -> int:
        """Put the fresh ``run`` where ``snapshot`` was taken; returns
        the iterations it had completed."""
        for name, values in zip(self.PROTECTED, snapshot.vectors,
                                strict=True):
            run.state.vectors[name].fill_from(values)
        run.clock, run.rel = snapshot.clock, snapshot.rel
        run.rho_old = snapshot.rho_old
        run.restart_next = snapshot.restart_next
        run.timelines.extend(snapshot.timelines)
        for entry in snapshot.history:
            run.history.append(*entry)
        run.stats.checkpoints_written = snapshot.checkpoints_written
        if self._checkpointing:
            self.strategy.saved = snapshot.checkpoint
        return snapshot.iteration

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
        # Only an iteration that injections reached has recovery work.
        disturbed = it.had_faults
        durations: Optional[Sequence[float]] = None
        if disturbed and planner.uses_recovery_tasks:
            durations = planner.recovery_durations(it.checkpoint,
                                                   it.recovery_work)
        if self._reenacts:
            planner.reenact(it.number, it.checkpoint, run.state, it.this_d,
                            durations)
        if not disturbed:
            run.timelines.append(it.timing.schedule.timeline)
            run.clock = it.start + it.timing.makespan
        elif durations is not None:
            sched = planner.retime(it.start, it.checkpoint, durations)
            run.timelines.append(sched.timeline)
            run.clock = it.start + sched.makespan + it.fault_service
        else:
            # Signal-handler methods (Lossy/ckpt/Trivial): the recovery work
            # is done in the handler, serialising the faulting worker.
            run.timelines.append(it.timing.schedule.timeline)
            run.clock = (it.start + it.timing.makespan
                         + sum(it.recovery_work.values()) + it.fault_service)

    def _close_iteration(self, run: _Run, it: _Iteration,
                         rel: Optional[float] = None) -> None:
        """Record where the iteration ended: the relative residual
        (recursive ``||g|| / ||b||`` unless the true one is given) and,
        under ``record_history``, its history entry."""
        run.rel = self._relative_residual(run) if rel is None else rel
        if self.config.record_history:
            run.history.append(it.number, run.clock, run.rel)

    def _relative_residual(self, run: _Run) -> float:
        """``||g|| / ||b||`` of the recursive residual.  ``sqrt(g . g)`` is
        what ``np.linalg.norm`` computes for a 1-d float64 vector, without
        its dispatch; it stays a reduction of its own, apart from ``rho``.
        It decides ``converged``: a CG scalar, whose BLAS ``dot`` makes
        that decision depend on the BLAS thread count at large ``n``."""
        g = run.state.vectors["g"].array
        return math.sqrt(g.dot(g)) / run.b_norm  # repro-lint: allow[paged-reduction] the reduction np.linalg.norm performs; it decides `converged`, a CG scalar whose bits follow the BLAS thread count until it moves onto the paged reduction with a store-schema bump

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
        run.pending.push_front(sorted(back, key=lambda inj: inj.time))
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
        injections = it.by_point[point]
        if not injections:
            return _NO_SKIP
        outcome = self._handle_point(run, it, point, injections, z, beta)
        it.absorb(point, outcome)
        return outcome.skip

    def _handle_point(self, run: _Run, it: _Iteration, point: str,
                      injections: List[Injection],
                      z: Optional[np.ndarray], beta: float) -> PointOutcome:
        """Materialise and handle the faults assigned to one check point:
        the access at the point detects every one of them."""
        state, stats = run.state, run.stats
        memory = state.memory
        this_d = it.this_d
        memory.detect_batch(injections, it.time_of(point), it.number)
        work = service = 0.0
        late_after, late_vectors = self._late_window(point, it)
        in_time: List[Tuple[str, int]] = []
        for inj in injections:
            service += FAULT_SERVICE_TIME
            vector, page = inj.vector, inj.page
            if vector in late_vectors and inj.time > late_after:
                it.late["d" if vector == this_d else vector].add(page)
                memory.mark_recovered(vector, page)
            else:
                in_time.append((vector, page))
        self.planner.monitor.note_dues(len(injections),
                                       len(injections) - len(in_time))

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
            direction = LinearCombinationRelation(1.0, beta)
            remaining: List[Tuple[str, int]] = []
            for vector, page in in_time:
                if vector == this_d:
                    def rebuild(page=page) -> None:
                        d_vec = state.vectors[this_d]
                        sl = d_vec.page_slice(page)
                        d_prev = state.vectors[state.previous_d_name].array
                        d_vec.set_page(page, direction.recover_lhs_page(
                            z[sl], d_prev[sl]))
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

    def _late_window(self, point: str,
                     it: _Iteration) -> Tuple[float, Tuple[str, ...]]:
        """AFEIR's vulnerability window at ``point`` (``LATE_WINDOWS``): a
        DUE on one of the returned vectors injected after the returned
        time is repaired too late for the point's scalar."""
        window = LATE_WINDOWS.get(point)
        if (window is None or not self.planner.uses_recovery_tasks
                or self.strategy.recovery_in_critical_path):
            return math.inf, ()
        return it.time_of(COVERING_TASK[point]), tuple(
            it.this_d if vector == "d" else vector for vector in window[1])

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

        # q first (needed to repair d), then d (+ redo the x update), then
        # g; all relations hold exactly at the end of the iteration.  (No
        # late DUE lands on x: LATE_WINDOWS has no window over it.)
        # One row per vector: the relation that recovers a page, the update
        # of the current iteration that skipped it (target array, factor),
        # the cost charged, and the vector lost *with* it in a related-data
        # conflict.  The d row owns the d&q conflict: it blanks its page
        # and resynchronises the residual afterwards so the invariants hold.
        repairs = (
            ("q", "q", lambda p: matvec.recover_lhs_page(p, d_cur),
             (g, -alpha), spmv_cost, "d", False),
            ("d", this_d, lambda p: matvec.recover_rhs_page(p, q, d_cur),
             (x, alpha), solve_cost, "q", True),
            ("g", "g", lambda p: residual.recover_residual_page(p, x),
             None, spmv_cost, None, False),
        )
        need_residual_resync = False
        for key, name, recover, redo, cost, related, owns_conflict in repairs:
            vector = vectors[name]
            conflicts = late[related] if related else _NO_SKIP
            for pages in _owner_runs(sorted(late[key]), conflicts,
                                     self.engine.page_owner):
                if pages[0] in conflicts:
                    if owns_conflict:
                        vector.zero_page(pages[0])
                        state.memory.mark_recovered(name, pages[0])
                        state.memory.mark_recovered(related, pages[0])
                        stats.pages_unrecoverable += 1
                        need_residual_resync = True
                    continue
                # Relation-based repairs execute on the rank owning the
                # pages (the owner holds the strip of A and the slices the
                # relation reads), one crossing per run of pages; local
                # engines run them inline.
                self.engine.run_on_owner(
                    pages[0], partial(_repair_pages, pages, vector, recover,
                                      redo))
                for page in pages:
                    state.memory.mark_recovered(name, page)
                    work += cost(page)
                    stats.pages_recovered += 1
        if need_residual_resync:
            self.engine.residual(x, self.b, g)
            work += cm.spmv(self.A.nnz, self.n) * self.config.work_scale
        for key in late:
            late[key].clear()
        stats.recovery_work_time += work
        it.recovery_work["r3"] += work
        it.restart |= need_residual_resync
