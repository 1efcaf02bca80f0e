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
simulated: each iteration's task graph is scheduled on ``num_workers``
workers by the list scheduler and the makespan advances the simulated
clock.  The graph has one of a few *shapes* (resilient or not, with or
without a checkpoint task), so each shape is built and compiled into an
:class:`~repro.runtime.plan.IterationPlan` once per solver and then only
re-timed — with the clock as start time and the iteration's actual
recovery durations.  Fault injection times are interpreted on that
clock.  With
``SolverConfig(backend="threaded")`` the same graphs are *additionally*
executed for real on worker threads each iteration — recovery tasks
genuinely overlap the reductions, wall-clock time and per-state shares
are measured, and the vulnerable-window monitor records the gap between
each recovery task and its dependent scalar — while the simulated
timeline stays authoritative for every clock-dependent decision, so the
two backends agree bit-for-bit.  Within an iteration, faults are
materialised at four check points:

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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
import scipy.sparse as sp

from repro.analysis.convergence import ConvergenceRecord, ResidualHistory
from repro.config import (DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE,
                          DEFAULT_WORKERS, PAGE_DOUBLES)
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
from repro.runtime.async_exec import VulnerableWindowMonitor
from repro.runtime.backend import ExecutionResult
from repro.runtime.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.runtime.runtime import make_runtime
from repro.runtime.graph import TaskGraph
from repro.runtime.plan import IterationPlan, compile_plan
from repro.runtime.scheduler import ScheduleResult
from repro.runtime.task import TaskKind
from repro.runtime.trace import ExecutionTrace


@dataclass
class SolverConfig:
    """Configuration of the resilient CG run."""

    tolerance: float = DEFAULT_TOLERANCE
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    num_workers: int = DEFAULT_WORKERS
    page_size: int = PAGE_DOUBLES
    cost_model: CostModel = DEFAULT_COST_MODEL
    #: Scale factor applied to compute-task durations (and checkpoint
    #: volume) so the scaled-down test matrices are *timed* as if they
    #: had the paper's problem sizes.  Purely a timing device; the
    #: numerics are untouched.
    work_scale: float = 200.0
    #: Record the per-iteration residual history.
    record_history: bool = True
    #: Injection schedule horizon, as a multiple of the ideal solve time.
    horizon_factor: float = 50.0
    #: Extra simulated cost of servicing one page fault (signal delivery,
    #: page re-mapping by the OS), charged per detected DUE.
    fault_service_time: float = 0.5e-3
    #: Deprecated alias for the runtime's (scheduler, clock) axes:
    #: ``"simulated"`` resolves to (list, simulated), ``"threaded"`` to
    #: (threaded, wall).  A legacy name only fills in axes not given
    #: explicitly below.  The simulated timeline — and therefore every
    #: clock-dependent decision — is bit-identical across all cells.
    backend: str = "simulated"
    #: Cap on the threaded scheduler's real thread count (``None``: one
    #: thread per simulated worker, capped by ``REPRO_MAX_WORKERS``).
    max_threads: Optional[int] = None
    #: Wall-clock pacing of the threaded scheduler: each task occupies
    #: its thread for at least ``duration * pace`` real seconds, so
    #: schedule effects (overlap, barriers) are physically measurable.
    #: 0 disables.
    pace: float = 1.0
    #: Rank-parallel execution (``repro.distributed.ranks``): with
    #: ``ranks > 1`` the numerical kernels are strip-partitioned over
    #: that many rank workers with real halo exchange, tree allreduces
    #: and owner-local recovery.  The reductions are reproducibly
    #: ordered, so results are bit-identical to ``ranks=1``; the
    #: simulated timeline is unaffected either way.  ``ranks > 1``
    #: implies ``placement="ranks"``.
    ranks: int = 1
    #: Runtime axes (:func:`repro.runtime.runtime.make_runtime`).  Each
    #: ``None`` is filled in from the deprecated ``backend``/``ranks``
    #: aliases above: scheduler "list"/"threaded" (how graphs run),
    #: placement "local"/"ranks" (where kernels run), clock
    #: "simulated"/"wall" (which timeline is reported).
    scheduler: Optional[str] = None
    placement: Optional[str] = None
    clock: Optional[str] = None


@dataclass
class CGState:
    """Solver state handed to recovery strategies (see ``core.strategy``)."""

    blocked: PageBlockedMatrix
    b: np.ndarray
    vectors: Dict[str, PagedVector]
    memory: MemoryManager
    residual_relation: ResidualRelation
    matvec_relation: MatVecRelation
    preconditioner: Optional[Preconditioner]
    current_d_name: str = "d0"
    previous_d_name: str = "d1"
    #: Where in the iteration we are ("A", "B", "C" or "D").
    point: str = "A"
    #: Scalars available for relation-based recovery (e.g. ``beta``).
    scalars: Dict[str, float] = field(default_factory=dict)


@dataclass
class SolveResult:
    """Everything produced by one resilient solve."""

    x: np.ndarray
    record: ConvergenceRecord
    trace: ExecutionTrace
    stats: RecoveryStats
    ideal_iteration_time: float = 0.0
    #: Measured wall-clock seconds of real graph execution (threaded
    #: backend only; 0.0 under pure simulation).
    wall_clock: float = 0.0
    #: Measured per-state accounting of the real execution, mirroring
    #: the simulated ``trace`` (threaded backend only).
    wall_trace: Optional[ExecutionTrace] = None
    #: Digest of the vulnerable-window monitor: recovery scans executed,
    #: measured windows, observed real overlap, DUEs landing in-window.
    window_summary: Optional[Dict[str, object]] = None
    #: Measured inter-rank communication of the rank-parallel engine
    #: (:class:`~repro.distributed.ranks.RankCommStats`); ``None`` for
    #: single-rank solves.
    rank_stats: Optional[object] = None

    @property
    def converged(self) -> bool:
        return self.record.converged

    @property
    def solve_time(self) -> float:
        return self.record.solve_time


@dataclass
class _IterationTemplate:
    """Cached schedule of a fault-free iteration (reused while no faults)."""

    makespan: float
    rel_point_times: Dict[str, float]
    trace: ExecutionTrace


class ResilientCG:
    """Page-blocked, task-scheduled CG/PCG with pluggable DUE recovery."""

    PROTECTED = ("x", "g", "d0", "d1", "q")

    def __init__(self, A: "sp.spmatrix | SparseOperator | np.ndarray",
                 b: np.ndarray, *,
                 strategy: Optional[RecoveryStrategy] = None,
                 preconditioner: Optional[Preconditioner] = None,
                 scenario: Optional[ErrorScenario] = None,
                 config: Optional[SolverConfig] = None,
                 matrix_name: str = ""):
        self.config = config or SolverConfig()
        self.blocked = PageBlockedMatrix(A, page_size=self.config.page_size)
        self.A = self.blocked.A
        self.n = self.blocked.n
        self.b = np.asarray(b, dtype=np.float64)
        if self.b.shape[0] != self.n:
            raise ValueError(f"b has length {self.b.shape[0]}, expected {self.n}")
        self.strategy = strategy
        self.preconditioner = preconditioner
        self.scenario = scenario
        self.matrix_name = matrix_name
        #: The composed runtime: one object owning the graph executor
        #: (scheduler + clock axes) and the kernel engine (placement
        #: axis).  All cells share one deterministic list scheduler for
        #: the simulated timeline and reduce in fixed page order, so
        #: every (scheduler x placement x clock) cell produces
        #: bit-identical iterates, solve times and recovery decisions.
        self.runtime = make_runtime(self.blocked,
                                    num_workers=self.config.num_workers,
                                    cost_model=self.config.cost_model,
                                    max_threads=self.config.max_threads,
                                    pace=self.config.pace,
                                    backend=self.config.backend,
                                    scheduler=self.config.scheduler,
                                    placement=self.config.placement,
                                    clock=self.config.clock,
                                    ranks=self.config.ranks)
        self.backend = self.runtime.executor
        self.scheduler = self.backend.scheduler
        self.engine = self.runtime.engine
        self.monitor = VulnerableWindowMonitor()
        self._wall_clock = 0.0
        self._wall_trace: Optional[ExecutionTrace] = None
        self._chunk_bounds = self._compute_chunks()
        #: Compiled iteration plans by shape ``(resilient, checkpoint)``.
        self._plans: Dict[Tuple[bool, bool], IterationPlan] = {}
        self._template: Optional[_IterationTemplate] = None
        if self.strategy is not None and hasattr(self.strategy, "work_scale"):
            # Conflict fallbacks recompute a full vector; charge them at the
            # same simulated problem scale as the solver's compute tasks.
            self.strategy.work_scale = self.config.work_scale

    # ==================================================================
    # public API
    # ==================================================================
    def close(self) -> None:
        """Release the runtime's real resources (idempotent)."""
        self.runtime.close()

    def __enter__(self) -> "ResilientCG":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def ideal_iteration_time(self) -> float:
        """Makespan of one fault-free iteration without resilience tasks."""
        return self.backend.simulate(self._plan(False, False)).makespan

    def estimate_ideal_time(self, iterations_hint: Optional[int] = None) -> float:
        """Ideal solve time: iteration makespan times the iteration count.

        With no hint, a fault-free reference CG is run (NumPy only) to
        count iterations.
        """
        t_iter = self.ideal_iteration_time()
        if iterations_hint is None:
            from repro.solvers.reference import preconditioned_conjugate_gradient
            ref = preconditioned_conjugate_gradient(
                self.A, self.b, preconditioner=self.preconditioner,
                tol=self.config.tolerance,
                max_iterations=self.config.max_iterations)
            iterations_hint = max(ref.record.iterations, 1)
        return t_iter * iterations_hint

    def solve(self, x0: Optional[np.ndarray] = None,
              ideal_time: Optional[float] = None) -> SolveResult:
        """Run the solver; returns the solution, record, trace and stats."""
        cfg = self.config
        stats = RecoveryStats()
        history = ResidualHistory()
        self.monitor = VulnerableWindowMonitor()
        self._wall_clock = 0.0
        self._wall_trace = None
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
                               stats=stats,
                               window_summary=self.monitor.summary())

        injections = self._build_injection_schedule(memory, ideal_time)
        # Time-sorted; each iteration takes its batch off the front.
        pending = deque(injections)
        faults_injected = len(pending)

        t_iter_ideal = self.ideal_iteration_time()
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
        self.engine.residual(x, self.b, g)
        rel = float(np.linalg.norm(g) / b_norm)
        clock = 0.0
        history.append(0, clock, rel)

        trace_total = ExecutionTrace(cfg.num_workers)
        rho_old = 0.0
        restart_next = True       # first iteration behaves like a restart
        converged = rel <= cfg.tolerance
        iteration = 0

        while not converged and iteration < cfg.max_iterations:
            iteration += 1
            this_d, last_d = (("d0", "d1") if iteration % 2 == 1
                              else ("d1", "d0"))
            d_cur = vectors[this_d].array
            d_prev = vectors[last_d].array
            q = vectors["q"].array

            checkpoint_now = (isinstance(self.strategy, CheckpointStrategy)
                              and self.strategy.should_checkpoint(iteration))

            # -------- timing pass 1 (cached for fault-free iterations) ------
            next_time = pending[0].time if pending else math.inf
            template = self._iteration_template()
            use_template = (not checkpoint_now
                            and next_time > clock + template.makespan)
            if use_template:
                makespan1 = template.makespan
                point_times = {k: clock + v
                               for k, v in template.rel_point_times.items()}
                trace1 = template.trace
            else:
                sched1 = self.backend.simulate(
                    self._plan(self._uses_recovery_tasks(), checkpoint_now),
                    start_time=clock)
                makespan1 = sched1.makespan
                point_times = {k: clock + v
                               for k, v in self._point_times(sched1).items()}
                trace1 = sched1.trace

            horizon_end = clock + makespan1
            batch: List[Injection] = []
            while pending and pending[0].time <= horizon_end:
                batch.append(pending.popleft())
            by_point = self._assign_to_points(batch, point_times)

            late: Dict[str, Set[int]] = {"g": set(), "x": set(),
                                         "d": set(), "q": set()}
            recovery_work = {"r1": 0.0, "r2": 0.0, "r3": 0.0}
            fault_service = 0.0
            restart_requested = False
            rolled_back = False

            def finish_restart():
                nonlocal clock, rel, rho_old, restart_next, converged
                # Unprocessed injections of this iteration go back to pending.
                self._apply_restart(state)
                clock2 = self._advance_clock(
                    clock, iteration, makespan1, trace1, recovery_work,
                    fault_service, checkpoint_now, trace_total,
                    faults=bool(batch), state=state, this_d=this_d)
                clock = clock2
                rel = float(np.linalg.norm(g) / b_norm)
                if cfg.record_history:
                    history.append(iteration, clock, rel)
                rho_old = 0.0
                restart_next = True
                converged = rel <= cfg.tolerance

            # ---------------- point A: before rho ---------------------------
            state.point = "A"
            state.current_d_name, state.previous_d_name = last_d, this_d
            outcome_a = self._handle_point(state, by_point["A"], point_times,
                                           "A", iteration, this_d, late, stats)
            recovery_work["r2"] += outcome_a["work"]
            fault_service += outcome_a["service"]
            restart_requested |= outcome_a["restart"]
            rolled_back |= outcome_a["rollback"]
            skip_rho: Set[int] = set(late["g"])
            if self._uses_recovery_tasks():
                skip_rho |= outcome_a["skip"]
            if restart_requested:
                self._put_back(by_point["B"] + by_point["C"] + by_point["D"],
                               pending)
                if rolled_back:
                    stats.rollbacks += 1
                finish_restart()
                continue

            # ---------------- rho / beta ------------------------------------
            z = self.preconditioner.apply(g) if self.preconditioner else g
            rho = self._masked_dot(g, z, skip_rho)
            stats.contributions_skipped += len(skip_rho)
            norm_g_sq = self._masked_dot(g, g, skip_rho)
            rel_recursive = math.sqrt(max(norm_g_sq, 0.0)) / b_norm
            if rel_recursive <= cfg.tolerance:
                true_rel = float(np.linalg.norm(self.b - self.A @ x) / b_norm)
                clock = self._advance_clock(
                    clock, iteration, makespan1, trace1, recovery_work,
                    fault_service, checkpoint_now, trace_total,
                    faults=bool(batch), state=state, this_d=this_d)
                if true_rel <= cfg.tolerance * 10:
                    converged = True
                    rel = true_rel
                    history.append(iteration, clock, rel)
                    break
                self.engine.residual(x, self.b, g)  # resynchronise
                restart_next = True
                rho_old = 0.0
                rel = float(np.linalg.norm(g) / b_norm)
                history.append(iteration, clock, rel)
                continue

            beta = 0.0 if (restart_next or rho_old == 0.0) else rho / rho_old
            state.scalars["beta"] = beta
            restart_next = False

            # ---------------- d update (double buffered) --------------------
            state.current_d_name, state.previous_d_name = this_d, last_d
            self.engine.update_direction(d_cur, z, beta, d_prev)
            memory.overwrite_vector(this_d)

            # ---------------- point B: before the mat-vec -------------------
            state.point = "B"
            outcome_b = self._handle_point(state, by_point["B"], point_times,
                                           "B", iteration, this_d, late, stats,
                                           z=z, beta=beta)
            recovery_work["r1"] += outcome_b["work"]
            fault_service += outcome_b["service"]
            restart_requested |= outcome_b["restart"]
            rolled_back |= outcome_b["rollback"]
            if restart_requested:
                self._put_back(by_point["C"] + by_point["D"], pending)
                if rolled_back:
                    stats.rollbacks += 1
                finish_restart()
                continue

            # ---------------- q = A d (halo exchange of d in rank mode) -----
            self.engine.spmv(d_cur, q)
            memory.overwrite_vector("q")

            # ---------------- point C: before alpha -------------------------
            state.point = "C"
            outcome_c = self._handle_point(state, by_point["C"], point_times,
                                           "C", iteration, this_d, late, stats)
            recovery_work["r1"] += outcome_c["work"]
            fault_service += outcome_c["service"]
            restart_requested |= outcome_c["restart"]
            rolled_back |= outcome_c["rollback"]
            if restart_requested:
                self._put_back(by_point["D"], pending)
                if rolled_back:
                    stats.rollbacks += 1
                finish_restart()
                continue

            skip_dq: Set[int] = set(late["d"]) | set(late["q"])
            if self._uses_recovery_tasks():
                skip_dq |= outcome_c["skip"]
            dq = self._masked_dot(d_cur, q, skip_dq)
            stats.contributions_skipped += len(skip_dq)
            if dq <= 0.0:
                # Breakdown after unrecovered corruption: resynchronise.
                self.engine.residual(x, self.b, g)
                restart_next = True
                rho_old = 0.0
                clock = self._advance_clock(
                    clock, iteration, makespan1, trace1, recovery_work,
                    fault_service, checkpoint_now, trace_total,
                    faults=bool(batch), state=state, this_d=this_d)
                rel = float(np.linalg.norm(g) / b_norm)
                history.append(iteration, clock, rel)
                continue
            alpha = rho / dq

            # ---------------- x and g updates --------------------------------
            self._masked_axpy(x, alpha, d_cur, skip_pages=late["x"] | late["d"])
            self._masked_axpy(g, -alpha, q, skip_pages=late["g"] | late["q"])
            rho_old = rho

            # ---------------- point D: end of the iteration ------------------
            state.point = "D"
            outcome_d = self._handle_point(state, by_point["D"], point_times,
                                           "D", iteration, this_d, late, stats)
            recovery_work["r3"] += outcome_d["work"]
            fault_service += outcome_d["service"]
            restart_requested |= outcome_d["restart"]
            rolled_back |= outcome_d["rollback"]

            deferred_work, deferred_restart = self._repair_deferred(
                state, late, this_d, alpha, stats)
            recovery_work["r3"] += deferred_work
            restart_requested |= deferred_restart

            if checkpoint_now and isinstance(self.strategy, CheckpointStrategy):
                self.strategy.save(state, iteration, {"rho_old": rho_old})
                stats.checkpoints_written += 1

            clock = self._advance_clock(
                clock, iteration, makespan1, trace1, recovery_work,
                fault_service, checkpoint_now, trace_total, faults=bool(batch),
                state=state, this_d=this_d)

            if restart_requested:
                if rolled_back:
                    stats.rollbacks += 1
                self._apply_restart(state)
                restart_next = True
                rho_old = 0.0

            rel = float(np.linalg.norm(g) / b_norm)
            if cfg.record_history:
                history.append(iteration, clock, rel)
            if rel <= cfg.tolerance:
                true_rel = float(np.linalg.norm(self.b - self.A @ x) / b_norm)
                if true_rel <= cfg.tolerance * 10:
                    converged = True
                    rel = true_rel
                else:
                    self.engine.residual(x, self.b, g)
                    restart_next = True
                    rho_old = 0.0

        final_residual = float(np.linalg.norm(self.b - self.A @ x) / b_norm)
        record = ConvergenceRecord(
            converged=converged, iterations=iteration, solve_time=clock,
            final_residual=final_residual, history=history,
            method=self._method_name(), matrix=self.matrix_name,
            faults_injected=faults_injected,
            faults_detected=memory.fault_count(),
            restarts=stats.restarts, rollbacks=stats.rollbacks)
        return SolveResult(x=np.array(x, copy=True), record=record,
                           trace=trace_total, stats=stats,
                           ideal_iteration_time=t_iter_ideal,
                           wall_clock=self._wall_clock,
                           wall_trace=self._wall_trace,
                           window_summary=self.monitor.summary(),
                           rank_stats=self.engine.comm_stats())

    # ==================================================================
    # construction helpers
    # ==================================================================
    def _method_name(self) -> str:
        base = "PCG" if self.preconditioner is not None else "CG"
        if self.strategy is None:
            return f"{base}-ideal"
        return f"{base}-{self.strategy.name}"

    def _uses_recovery_tasks(self) -> bool:
        return self.strategy is not None and self.strategy.uses_recovery_tasks

    def _allocate_vectors(self, memory: MemoryManager,
                          x0: Optional[np.ndarray]) -> Dict[str, PagedVector]:
        vectors: Dict[str, PagedVector] = {}
        for name in self.PROTECTED:
            vec = PagedVector(self.n, name=name, page_size=self.config.page_size)
            if name == "x" and x0 is not None:
                vec.fill_from(np.asarray(x0, dtype=np.float64))
            vectors[name] = memory.register(vec)
        return vectors

    def _compute_chunks(self) -> List[Tuple[int, int]]:
        """Strip-mine the row range into one chunk per worker."""
        workers = self.config.num_workers
        bounds = np.linspace(0, self.n, workers + 1).astype(int)
        return [(int(bounds[i]), int(bounds[i + 1])) for i in range(workers)
                if bounds[i + 1] > bounds[i]]

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
        horizon = ideal_time * self.config.horizon_factor
        return self.scenario.schedule(ideal_time, horizon, memory.page_universe())

    # ==================================================================
    # task graph construction and timing
    # ==================================================================
    def _chunk_cost(self, kind: str) -> List[float]:
        """Durations of the strip-mined chunk tasks for one operation."""
        cm = self.config.cost_model
        scale = self.config.work_scale
        costs: List[float] = []
        for (start, stop) in self._chunk_bounds:
            rows = stop - start
            if kind == "spmv":
                nnz = int(self.A.indptr[stop] - self.A.indptr[start])
                costs.append(cm.kernel_time(2.0 * nnz, nnz * 12.0 + rows * 8.0)
                             * scale)
            elif kind == "axpy":
                costs.append(cm.kernel_time(2.0 * rows, 24.0 * rows) * scale)
            elif kind == "dot":
                costs.append(cm.kernel_time(2.0 * rows, 16.0 * rows) * scale)
            elif kind == "precond":
                # Block-Jacobi triangular solves: ~2 * page_size flops/row.
                flops = 2.0 * self.config.page_size * rows
                costs.append(cm.kernel_time(flops, 24.0 * rows) * scale)
            else:
                raise ValueError(f"unknown chunk kind {kind!r}")
        return costs

    def _build_iteration_graph(self, *, resilient: bool, checkpoint: bool
                               ) -> Tuple[TaskGraph, Dict[str, object]]:
        """One CG iteration as a task graph (Figure 1 of the paper).

        Built once per shape and compiled (:meth:`_plan`).  Task names
        are ``str.format`` templates over the iteration number
        (``"beta{t}"``); recovery tasks carry the duration of a scan that
        finds nothing.  Also returns the roles the timing passes look up:
        the two scalars, the spmv chunks and the recovery tasks.
        """
        cm = self.config.cost_model
        graph = TaskGraph()
        t = "{t}"
        critical = (self.strategy.recovery_in_critical_path
                    if self.strategy is not None else False)
        rec_priority = (self.strategy.recovery_task_priority
                        if self.strategy is not None else 0)
        check = cm.recovery_check()
        dot_cost = self._chunk_cost("dot")
        axpy_cost = self._chunk_cost("axpy")

        precond_names: List[str] = []
        if self.preconditioner is not None:
            for c, dur in enumerate(self._chunk_cost("precond")):
                name = f"z{t}:{c}"
                graph.add_task(name, dur, kind=TaskKind.COMPUTE,
                               reads={f"seg:g[{c}]"},
                               writes={f"seg:z[{c}]"})
                precond_names.append(name)

        # --- rho partial dots + r2 + scalar (beta task) ----------------------
        rho_parts: List[str] = []
        for c, dur in enumerate(dot_cost):
            name = f"rho{t}:{c}"
            rho_reads = {f"seg:g[{c}]"}
            if precond_names:
                rho_reads.add(f"seg:z[{c}]")
            graph.add_task(name, dur, kind=TaskKind.REDUCTION,
                           deps=precond_names, reads=rho_reads,
                           writes={f"part:rho[{c}]"})
            rho_parts.append(name)
        scalar_rho_deps = list(rho_parts)
        if resilient:
            r2_deps = rho_parts if critical else precond_names
            graph.add_task(f"r2_{t}", check, kind=TaskKind.RECOVERY,
                           priority=rec_priority, deps=r2_deps)
            scalar_rho_deps.append(f"r2_{t}")
        graph.add_task(f"beta{t}", cm.scalar_task(), kind=TaskKind.REDUCTION,
                       deps=scalar_rho_deps,
                       reads={f"part:rho[{c}]" for c in range(len(rho_parts))},
                       writes={"scalar:beta"})

        # --- d update ---------------------------------------------------------
        d_parts: List[str] = []
        for c, dur in enumerate(axpy_cost):
            name = f"d{t}:{c}"
            d_reads = {"scalar:beta", f"seg:d[{c}]",
                       f"seg:z[{c}]" if precond_names else f"seg:g[{c}]"}
            graph.add_task(name, dur, kind=TaskKind.COMPUTE,
                           deps=[f"beta{t}"], reads=d_reads,
                           writes={f"seg:d[{c}]"})
            d_parts.append(name)

        # --- q = A d (lattice: every chunk needs every d chunk) ---------------
        q_parts: List[str] = []
        for c, dur in enumerate(self._chunk_cost("spmv")):
            name = f"q{t}:{c}"
            graph.add_task(name, dur, kind=TaskKind.COMPUTE, deps=d_parts,
                           reads={f"seg:d[{k}]"
                                  for k in range(len(d_parts))},
                           writes={f"seg:q[{c}]"})
            q_parts.append(name)

        # --- <d, q> partial dots + r1 + alpha ----------------------------------
        dq_parts: List[str] = []
        for c, dur in enumerate(dot_cost):
            name = f"dq{t}:{c}"
            graph.add_task(name, dur, kind=TaskKind.REDUCTION,
                           deps=[f"q{t}:{c}"],
                           reads={f"seg:d[{c}]", f"seg:q[{c}]"},
                           writes={f"part:dq[{c}]"})
            dq_parts.append(name)
        scalar_alpha_deps = list(dq_parts)
        if resilient:
            r1_deps = dq_parts if critical else q_parts
            graph.add_task(f"r1_{t}", check, kind=TaskKind.RECOVERY,
                           priority=rec_priority, deps=r1_deps)
            scalar_alpha_deps.append(f"r1_{t}")
        graph.add_task(f"alpha{t}", cm.scalar_task(), kind=TaskKind.REDUCTION,
                       deps=scalar_alpha_deps,
                       reads={f"part:dq[{c}]" for c in range(len(dq_parts))},
                       writes={"scalar:alpha"})

        # --- x and g updates ----------------------------------------------------
        update_parts: List[str] = []
        for c, dur in enumerate(axpy_cost):
            name = f"x{t}:{c}"
            graph.add_task(name, dur, kind=TaskKind.COMPUTE,
                           deps=[f"alpha{t}"],
                           reads={"scalar:alpha", f"seg:d[{c}]",
                                  f"seg:x[{c}]"},
                           writes={f"seg:x[{c}]"})
            update_parts.append(name)
        for c, dur in enumerate(axpy_cost):
            name = f"g{t}:{c}"
            graph.add_task(name, dur, kind=TaskKind.COMPUTE,
                           deps=[f"alpha{t}"],
                           reads={"scalar:alpha", f"seg:q[{c}]",
                                  f"seg:g[{c}]"},
                           writes={f"seg:g[{c}]"})
            update_parts.append(name)
        if resilient:
            r3_deps = update_parts if critical else [f"alpha{t}"]
            graph.add_task(f"r3_{t}", check, kind=TaskKind.RECOVERY,
                           priority=rec_priority, deps=r3_deps)

        # --- checkpoint write ----------------------------------------------------
        if checkpoint and isinstance(self.strategy, CheckpointStrategy):
            volume = (self.strategy.checkpoint_bytes(self.n)
                      * self.config.work_scale)
            graph.add_task(f"ckpt{t}", cm.checkpoint_write(volume),
                           kind=TaskKind.CHECKPOINT, deps=update_parts,
                           reads={f"seg:{v}[{c}]"
                                  for v in ("x", "g")
                                  for c in range(len(self._chunk_bounds))})

        roles: Dict[str, object] = {"beta": f"beta{t}", "alpha": f"alpha{t}",
                                    "q": q_parts}
        if resilient:
            roles.update((key, f"{key}_{t}") for key in ("r1", "r2", "r3"))
        return graph, roles

    def _plan(self, resilient: bool, checkpoint: bool) -> IterationPlan:
        """The compiled plan of one iteration shape, built on first use."""
        shape = (resilient, checkpoint)
        plan = self._plans.get(shape)
        if plan is None:
            graph, roles = self._build_iteration_graph(resilient=resilient,
                                                       checkpoint=checkpoint)
            plan = self._plans[shape] = compile_plan(graph, roles)
        return plan

    def _iteration_template(self) -> _IterationTemplate:
        """Schedule of a fault-free iteration, cached across iterations."""
        if self._template is None:
            sched = self.backend.simulate(
                self._plan(self._uses_recovery_tasks(), False))
            self._template = _IterationTemplate(
                makespan=sched.makespan,
                rel_point_times=self._point_times(sched),
                trace=sched.trace)
        return self._template

    # ==================================================================
    # real (threaded) graph execution
    # ==================================================================
    def _execute_iteration_for_real(self, iteration: int, checkpoint_now: bool,
                                    state: CGState, this_d: str,
                                    durations: Optional[Sequence[float]] = None
                                    ) -> None:
        """Re-enact this iteration's task graph for real (read-only).

        The graph is a fresh projection of the plan the simulator timed,
        named for this iteration and carrying ``durations`` — the
        enlarged recovery durations when this iteration repaired faults,
        so pacing charges the same recovery work the simulated timeline
        does.  Being a projection, it can be rewired (the halo task, the
        r1 overlap of the ``ranks`` placement) without touching the plan
        the timing passes use.  Every task carries a real
        (read-only, bitwise-neutral) action: partial dot products for
        the reduction chunks, memory touches for the vector-update
        chunks, and the strategy's recovery scan for the r1/r2/r3 tasks
        — shipped to the owning rank under the ranks placement.
        Measured wall intervals feed the vulnerable-window monitor and
        the wall-clock overhead accounting; cells with the simulated
        clock discard them (the execution still happens, so races and
        ordering are exercised, but wall time is not an output).
        """
        plan = self._plan(self._uses_recovery_tasks(), checkpoint_now)
        graph = plan.to_graph(durations, names=[name.format(t=iteration)
                                                for name in plan.names])
        if self.runtime.spec.placement == "ranks":
            self._add_halo_reenactment(graph, iteration, state, this_d)
        self._attach_real_actions(graph, iteration, state, this_d)
        # execute(), not run(): the simulated timeline of this iteration
        # is already known (pass 1 / template), so only the measured side
        # is computed here.
        result = self.backend.execute(graph)
        if not self.runtime.measures_wall:
            result.wall_intervals = {}
            result.wall_time = 0.0
        pairs = (tuple(self.strategy.vulnerable_pairs(iteration))
                 if self._uses_recovery_tasks() else ())
        self.monitor.observe(result, pairs)
        if self.runtime.measures_wall:
            self._accumulate_wall(result)

    def _add_halo_reenactment(self, graph: TaskGraph, iteration: int,
                              state: CGState, this_d: str) -> None:
        """Splice the rank halo exchange into the re-enactment graph.

        The ``halo{t}`` task really moves the halo of the current search
        direction over the rank channels (a read-only probe: it writes
        the same ``d`` values the preceding spmv already exchanged), so
        it has a measurable wall interval of :class:`TaskKind.COMMUNICATION`.
        It is given duration 0.0 and lives only in this re-enactment
        graph — the simulated timeline never sees it, which is what
        keeps every runtime cell's simulated decisions bit-identical.

        For strategies with off-critical-path recovery (AFEIR), ``r1``
        is re-wired from the spmv chunks back to the d-update chunks so
        it becomes *ready* at the same moment the halo exchange starts:
        the paper's claim that exact forward recovery overlaps the
        neighbour communication.  Critical-path strategies (FEIR) keep
        their reduction-chain dependencies, so they structurally cannot
        overlap the halo — the measured contrast the monitor reports.
        """
        t = iteration
        d_parts = [name for name in
                   (f"d{t}:{c}" for c in range(len(self._chunk_bounds)))
                   if name in graph]
        if not d_parts:
            return
        engine = self.engine
        d_cur = state.vectors[this_d].array
        halo_name = f"halo{t}"
        graph.add_task(halo_name, 0.0, kind=TaskKind.COMMUNICATION,
                       deps=list(d_parts),
                       action=lambda: engine.halo_exchange(d_cur),
                       reads={f"seg:d[{c}]"
                              for c in range(len(self._chunk_bounds))},
                       writes={"halo:d"})
        for c in range(len(self._chunk_bounds)):
            name = f"q{t}:{c}"
            if name in graph:
                task = graph.task(name).depends_on(halo_name)
                # the spmv consumes the freshly-exchanged halo values
                task.reads = task.reads | {"halo:d"}
        if (self._uses_recovery_tasks()
                and not self.strategy.recovery_in_critical_path
                and f"r1_{t}" in graph):
            graph.task(f"r1_{t}").deps = list(d_parts)

    def _attach_real_actions(self, graph: TaskGraph, iteration: int,
                             state: CGState, this_d: str) -> None:
        """Give every task of one iteration graph a real executable body."""
        t = iteration
        vectors = state.vectors
        g = vectors["g"].array
        x = vectors["x"].array
        q = vectors["q"].array
        d_cur = vectors[this_d].array

        def dot_chunk(u: np.ndarray, v: np.ndarray, sl: slice):
            def action(u=u, v=v, sl=sl) -> float:
                return float(u[sl] @ v[sl])  # repro-lint: allow[paged-reduction] single-chunk dot; one page, order already fixed
            return action

        def touch_chunk(u: np.ndarray, sl: slice):
            def action(u=u, sl=sl) -> float:
                return float(np.sum(u[sl]))  # repro-lint: allow[paged-reduction] single-chunk touch probe; value discarded
            return action

        for c, (start, stop) in enumerate(self._chunk_bounds):
            sl = slice(start, stop)
            chunk_actions = {
                f"z{t}:{c}": touch_chunk(g, sl),
                f"rho{t}:{c}": dot_chunk(g, g, sl),
                f"d{t}:{c}": touch_chunk(d_cur, sl),
                f"q{t}:{c}": touch_chunk(q, sl),
                f"dq{t}:{c}": dot_chunk(d_cur, q, sl),
                f"x{t}:{c}": touch_chunk(x, sl),
                f"g{t}:{c}": touch_chunk(g, sl),
            }
            for name, action in chunk_actions.items():
                if name in graph:
                    graph.task(name).action = action
        if self.strategy is not None:
            distributed = self.runtime.spec.placement == "ranks"
            num_pages = vectors["x"].num_pages
            for key in ("r1", "r2", "r3"):
                name = f"{key}_{t}"
                if name in graph:
                    probe = self.strategy.recovery_probe(
                        state.memory, self.monitor, label=name)
                    if distributed:
                        # The paper's locality rule: the recovery scan
                        # runs on the rank owning the (potentially) lost
                        # page.  run_on_rank ships the probe without
                        # counting it as a recovery dispatch.
                        def shipped(probe=probe, memory=state.memory,
                                    t=t, num_pages=num_pages):
                            lost = memory.lost_pages()
                            page = lost[0][1] if lost else t % num_pages
                            return self.engine.run_on_rank(
                                self.engine.page_owner(page), probe)
                        graph.task(name).action = shipped
                    else:
                        graph.task(name).action = probe
        ckpt_name = f"ckpt{t}"
        if ckpt_name in graph:
            graph.task(ckpt_name).action = touch_chunk(x, slice(0, self.n))

    def _accumulate_wall(self, result: ExecutionResult) -> None:
        self._wall_clock += result.wall_time
        threads = getattr(self.backend, "thread_count",
                          self.backend.num_workers)
        step = ExecutionTrace(num_workers=threads)
        step.breakdown.add(result.measured_breakdown(threads))
        step.wall_time = result.wall_time
        step.task_count = len(result.wall_intervals)
        if self._wall_trace is None:
            self._wall_trace = step
        else:
            self._wall_trace.accumulate(step)

    @staticmethod
    def _point_times(sched: ScheduleResult) -> Dict[str, float]:
        """Check-point times relative to the schedule's start time."""
        roles, starts, base = sched.plan.roles, sched.starts, sched.start_time
        times = {"A": starts[roles["beta"]] - base,
                 "B": min(starts[i] for i in roles["q"]) - base,
                 "C": starts[roles["alpha"]] - base,
                 "D": sched.makespan}
        # Without recovery tasks the covering scalar's point stands in.
        for key, point in (("r1", "C"), ("r2", "A"), ("r3", "D")):
            times[key] = (starts[roles[key]] - base if key in roles
                          else times[point])
        return times

    @staticmethod
    def _put_back(unprocessed: List[Injection],
                  pending: "deque[Injection]") -> None:
        """Return an aborted iteration's unprocessed injections to the
        front of the schedule.

        They were taken from the front (all at or before the iteration's
        horizon, everything still pending after it), so this equals a
        stable ``sorted(unprocessed + pending, key=time)``.
        """
        pending.extendleft(reversed(sorted(unprocessed,
                                           key=lambda inj: inj.time)))

    def _assign_to_points(self, batch: List[Injection],
                          point_times: Dict[str, float]
                          ) -> Dict[str, List[Injection]]:
        out: Dict[str, List[Injection]] = {"A": [], "B": [], "C": [], "D": []}
        for inj in batch:
            if inj.time <= point_times["A"]:
                out["A"].append(inj)
            elif inj.time <= point_times["B"]:
                out["B"].append(inj)
            elif inj.time <= point_times["C"]:
                out["C"].append(inj)
            else:
                out["D"].append(inj)
        return out

    def _advance_clock(self, clock: float, iteration: int, makespan1: float,
                       trace1: ExecutionTrace, recovery_work: Dict[str, float],
                       fault_service: float, checkpoint_now: bool,
                       trace_total: ExecutionTrace, faults: bool,
                       state: CGState, this_d: str) -> float:
        """Second timing pass with the actual recovery durations.

        This is the single per-iteration choke point, so the threaded
        backend's real execution also runs here — with the *actual*
        recovery durations when faults enlarged the recovery tasks, so
        the measured wall clock and state shares account for the same
        recovery work the simulated timeline charges.
        """
        extra_work = sum(recovery_work.values())
        plan = None
        durations: Optional[List[float]] = None
        if (faults or extra_work != 0.0) and self._uses_recovery_tasks():
            plan = self._plan(True, checkpoint_now)
            check = self.config.cost_model.recovery_check()
            durations = list(plan.durations)
            for key, value in recovery_work.items():
                durations[plan.roles[key]] = check + value
        if self.runtime.runs_reenactment:
            self._execute_iteration_for_real(iteration, checkpoint_now, state,
                                             this_d, durations)
        if not faults and extra_work == 0.0:
            trace_total.accumulate(trace1)
            return clock + makespan1
        if plan is not None:
            sched = self.backend.simulate(plan, start_time=clock,
                                          durations=durations)
            trace_total.accumulate(sched.trace)
            return clock + sched.makespan + fault_service
        # Signal-handler methods (Lossy/ckpt/Trivial): the recovery work is
        # done in the handler, serialising the faulting worker.
        trace_total.accumulate(trace1)
        return clock + makespan1 + extra_work + fault_service

    # ==================================================================
    # fault handling
    # ==================================================================
    def _handle_point(self, state: CGState, injections: List[Injection],
                      point_times: Dict[str, float], point: str,
                      iteration: int, this_d: str,
                      late: Dict[str, Set[int]], stats: RecoveryStats,
                      z: Optional[np.ndarray] = None,
                      beta: float = 0.0) -> Dict[str, object]:
        """Materialise and handle the faults assigned to one check point."""
        result: Dict[str, object] = {"work": 0.0, "service": 0.0,
                                     "restart": False, "rollback": False,
                                     "skip": set()}
        if not injections:
            return result
        memory = state.memory
        detect_time = point_times[point]
        in_time: List[Tuple[str, int]] = []
        for inj in injections:
            memory.poison(inj.vector, inj.page, time=inj.time,
                          iteration=iteration)
            event = memory.touch(inj.vector, inj.page, time=detect_time)
            if event is None:
                continue
            result["service"] += self.config.fault_service_time
            if self._fault_is_late(point, inj, point_times, this_d):
                key = "d" if inj.vector == this_d else inj.vector
                if key in late:
                    late[key].add(inj.page)
                    memory.mark_recovered(inj.vector, inj.page)
                    stats.contributions_skipped += 1
                    self.monitor.note_due(inj.vector, inj.page, inj.time,
                                          point, in_window=True)
                    continue
            self.monitor.note_due(inj.vector, inj.page, inj.time,
                                  point, in_window=False)
            in_time.append((inj.vector, inj.page))

        if not in_time:
            return result

        if self.strategy is None:
            for vector, page in in_time:
                state.vectors[vector].zero_page(page)
                memory.mark_recovered(vector, page)
            return result

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
                    result["work"] += self.config.cost_model.axpy_block(
                        sl.stop - sl.start)
                else:
                    remaining.append((vector, page))
            in_time = remaining
            if not in_time:
                return result

        # Recovery executes on the rank owning the first corrupted page
        # (rank engines; local engines run inline).  The whole batch goes
        # to one rank because simultaneous losses may need a *coupled*
        # solve over the union of the pages (Section 2.4 case 1), which
        # cannot be split along ownership lines; for the common
        # single-page event this is exactly the paper's owner-local rule.
        outcome = self.engine.run_on_owner(
            in_time[0][1],
            lambda: self.strategy.handle_lost_pages(state, in_time,
                                                    iteration))
        stats.pages_recovered += len(outcome.recovered)
        stats.pages_unrecoverable += len(outcome.unrecoverable)
        stats.recovery_work_time += outcome.work_time
        result["work"] = float(result["work"]) + outcome.work_time
        result["restart"] = outcome.restart_required
        result["rollback"] = outcome.rolled_back
        if outcome.restart_required:
            stats.restarts += 1
        result["skip"] = {page for _, page in outcome.unrecoverable}
        return result

    def _fault_is_late(self, point: str, inj: Injection,
                       point_times: Dict[str, float], this_d: str) -> bool:
        """AFEIR vulnerability window: repaired too late for the next scalar?"""
        if self.strategy is None or not self.strategy.uses_recovery_tasks:
            return False
        if self.strategy.recovery_in_critical_path:
            return False
        if point == "A" and inj.vector == "g":
            return inj.time > point_times["r2"]
        if point == "C" and inj.vector in (this_d, "q"):
            return inj.time > point_times["r1"]
        return False

    def _repair_deferred(self, state: CGState, late: Dict[str, Set[int]],
                         this_d: str, alpha: float,
                         stats: RecoveryStats) -> Tuple[float, bool]:
        """Exactly repair AFEIR late pages at point D and redo skipped updates.

        Returns the simulated recovery work time and whether a restart of the
        Krylov recurrence is needed (related-data conflicts only).
        """
        if not any(late.values()):
            return 0.0, False
        cm = self.config.cost_model
        work = 0.0
        vectors = state.vectors
        blocked = state.blocked
        x = vectors["x"].array
        g = vectors["g"].array
        d_cur = vectors[this_d].array
        q = vectors["q"].array

        # q first (needed to repair d), then d (+ redo the x update), then g,
        # then x; all relations hold exactly at the end of the iteration.
        # Each relation-based repair executes on the rank owning the page
        # (the owner holds the strip of A and the slices the relation
        # reads); local engines run the same closures inline.
        need_residual_resync = False
        for page in sorted(late["q"]):
            if page in late["d"]:
                continue                     # related-data conflict, below

            def repair_q(page=page) -> None:
                values = state.matvec_relation.recover_lhs_page(page, d_cur)
                vectors["q"].set_page(page, values)
                sl = vectors["q"].page_slice(page)
                g[sl] -= alpha * values                  # redo skipped g update
            self.engine.run_on_owner(page, repair_q)
            state.memory.mark_recovered("q", page)
            work += cm.spmv_block(blocked.nnz_of_block(page))
            stats.pages_recovered += 1
        for page in sorted(late["d"]):
            if page in late["q"]:
                # Related data lost together: blank the direction page and
                # resynchronise the residual afterwards so the invariants hold.
                vectors[this_d].zero_page(page)
                state.memory.mark_recovered(this_d, page)
                state.memory.mark_recovered("q", page)
                stats.pages_unrecoverable += 1
                need_residual_resync = True
                continue

            def repair_d(page=page) -> None:
                values = state.matvec_relation.recover_rhs_page(page, q, d_cur)
                vectors[this_d].set_page(page, values)
                sl = vectors[this_d].page_slice(page)
                x[sl] += alpha * values                  # redo skipped x update
            self.engine.run_on_owner(page, repair_d)
            state.memory.mark_recovered(this_d, page)
            work += cm.block_solve(blocked.block_size(page),
                                   factorized=blocked.has_cached_factor(page))
            stats.pages_recovered += 1
        for page in sorted(late["g"]):
            if page in late["x"]:
                continue                     # related-data conflict, below

            def repair_g(page=page) -> None:
                values = state.residual_relation.recover_residual_page(page, x)
                vectors["g"].set_page(page, values)
            self.engine.run_on_owner(page, repair_g)
            state.memory.mark_recovered("g", page)
            work += cm.spmv_block(blocked.nnz_of_block(page))
            stats.pages_recovered += 1
        for page in sorted(late["x"]):
            if page in late["g"]:
                vectors["x"].zero_page(page)
                state.memory.mark_recovered("x", page)
                state.memory.mark_recovered("g", page)
                stats.pages_unrecoverable += 1
                need_residual_resync = True
                continue

            def repair_x(page=page) -> None:
                values = state.residual_relation.recover_iterate_page(page, g, x)
                vectors["x"].set_page(page, values)
            self.engine.run_on_owner(page, repair_x)
            state.memory.mark_recovered("x", page)
            work += cm.block_solve(blocked.block_size(page),
                                   factorized=blocked.has_cached_factor(page))
            stats.pages_recovered += 1
        if need_residual_resync:
            self.engine.residual(x, self.b, g)
            work += cm.kernel_time(2.0 * self.A.nnz,
                                   12.0 * self.A.nnz + 8.0 * self.n) \
                * self.config.work_scale
        for key in late:
            late[key].clear()
        stats.recovery_work_time += work
        return work, need_residual_resync

    def _apply_restart(self, state: CGState) -> None:
        """Recompute the residual from the iterate after a restart/rollback."""
        x = state.vectors["x"].array
        g = state.vectors["g"].array
        self.engine.residual(x, self.b, g)
        state.memory.overwrite_vector("g")

    # ==================================================================
    # numerics helpers
    # ==================================================================
    def _masked_dot(self, u: np.ndarray, v: np.ndarray,
                    skip_pages: Set[int]) -> float:
        """Dot product excluding the contributions of ``skip_pages``.

        Delegated to the kernel engine: the reduction is page-partitioned
        and combined in fixed page order (skipped pages are zeroed before
        the reduction, making the Section 3.3.2 skip protocol exact), so
        single-rank and N-rank solves produce the same bits.
        """
        return self.engine.dot(u, v, skip_pages)

    def _masked_axpy(self, y: np.ndarray, a: float, v: np.ndarray,
                     skip_pages: Set[int]) -> None:
        """``y += a * v`` skipping the pages whose update must be deferred."""
        self.engine.axpy(y, a, v, skip_pages)
