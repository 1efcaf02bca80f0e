"""The shape of a resilient CG iteration: one plan, three consumers.

Figure 1 / Listing 2 of the paper fix the structure of an iteration —
the strip-mined CG recurrence, the r1/r2/r3 recovery tasks and where
they sit relative to the two scalars — and that structure costs *time
only*: a lost page never changes what the recurrence computes, it
enlarges a recovery task.  :class:`CGPlanner` is the single owner of
that structure.  It builds the task graph of each iteration *shape*
``(resilient, checkpoint)`` once, compiles it into the strict
representation (:class:`~repro.runtime.plan.IterationPlan`) and answers
the three questions the solver asks of it:

*time it*
    :meth:`~CGPlanner.time_iteration` re-times a shape from the current
    clock (pass 1, fault-free durations — cached while no fault is due)
    and :meth:`~CGPlanner.retime` with the iteration's actual recovery
    work (pass 2); both go through ``executor.simulate(plan, ...)`` at
    the iteration's own clock: after a shape's first timing, a replay.
*where are the check points*
    every timing carries the start of ``A``/``B``/``C``/``D`` and of
    ``r1``/``r2``/``r3`` relative to the iteration's start
    (:class:`IterationTiming`).
*run it*
    :meth:`~CGPlanner.reenact` hands the executor the compiled *run
    shape* — the timing plan itself, or under the ranks placement its
    halo-exchange variant, compiled once like every other shape — with
    a table of real (read-only) task bodies bound once per solve, and
    folds the measured result into the solve's one record of it
    (:class:`~repro.runtime.backend.ExecutionFold`).  Per iteration it
    passes a durations vector and an iteration number; it builds no
    graph and formats no name.

The solver (:mod:`repro.solvers.resilient_cg`) therefore holds a plan
instead of building one: the recurrence and the fault-point state
machine never see a task graph.

**Compiled once per process.**  Everything above that is a function of
the shape alone — chunk costs, the compiled plans, the scheduler's
structure table, the fault-free timing, the ideal makespan — lives in a
:class:`_Compiled` entry of the ``compiled`` table the planner is handed
(the campaign's: ``CampaignCache.compiled``), under a key the planner
derives from everything those are computed from (:meth:`CGPlanner._key`).
A planner handed no table makes its own and compiles for itself, on the
same code path.  What is bound to one solve stays with the solver: the
action tables (a solve's vectors), the executor and its threads, and the
page-blocked matrix, whose cached LU factors feed the simulated clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.checkpoint import CheckpointStrategy
from repro.core.strategy import RecoveryStrategy
from repro.matrices.blocked import PageBlockedMatrix
from repro.runtime.backend import ExecutionBackend, ExecutionFold
from repro.runtime.graph import TaskGraph
from repro.runtime.kernels import KernelEngine
from repro.runtime.plan import IterationPlan, compile_plan
from repro.runtime.scheduler import ScheduleResult
from repro.runtime.task import TaskKind
from repro.solvers.cg_types import CGState, LedgerEntry, SolverConfig

#: The recovery tasks of a resilient iteration, and the check point each
#: one covers (the point's faults enlarge that task).
RECOVERY_TASKS = ("r1", "r2", "r3")
COVERING_TASK = {"A": "r2", "B": "r1", "C": "r1", "D": "r3"}
#: AFEIR's vulnerable windows (Figure 2), by check point: the scalar
#: that the point's covering task guards, and the vectors on which a DUE
#: landing after that task started is too late for the scalar (``"d"``
#: is the direction this iteration writes).  Such a page's contribution
#: to the reduction is skipped and the page is repaired at point D.
#: Critical-path recovery (FEIR) has no window.
LATE_WINDOWS = {"A": ("beta", ("g",)), "C": ("alpha", ("d", "q"))}


@lru_cache(maxsize=64)
def _chunk_bounds(n: int, workers: int) -> Tuple[Tuple[int, int], ...]:
    """The non-empty row ranges of ``n`` rows strip-mined over
    ``workers`` chunks: a function of the two alone, so built once."""
    bounds = np.linspace(0, n, workers + 1).astype(int)
    return tuple((int(lo), int(hi)) for lo, hi
                 in zip(bounds[:-1], bounds[1:], strict=True) if hi > lo)


def _dot_chunk(u: np.ndarray, v: np.ndarray) -> float:
    return float(u @ v)


def _touch_chunk(u: np.ndarray) -> float:
    return float(np.add.reduce(u))  # repro-lint: allow[paged-reduction] single-chunk read probe; value discarded


def _scan() -> None:
    """A re-enacted recovery task's body: every loss was repaired at its
    check point, so the scan finds none."""


def _shipped_probe(probe: Callable[[], None], engine: KernelEngine,
                   iteration: List[int], num_pages: int) -> None:
    """Run a re-enacted recovery task's body on a rank.  The paper's
    locality rule puts a recovery on the rank owning the lost page; the
    scan has none to follow, so it runs on the owner of page
    ``iteration % num_pages``.  ``run_on_rank`` ships it without
    counting a recovery dispatch."""
    engine.run_on_rank(engine.page_owner(iteration[0] % num_pages), probe)


@dataclass(frozen=True)
class IterationTiming:
    """One timed iteration, relative to the clock it started at."""

    makespan: float
    #: Start of check points ``A``-``D`` and of ``r1``/``r2``/``r3``
    #: (without recovery tasks the covering scalar's point stands in).
    points: Dict[str, float]
    #: The schedule timed (its ``trace`` is derived on first read).
    schedule: ScheduleResult

    @cached_property
    def entry(self) -> LedgerEntry:
        """The one entry of every iteration this timing advances undisturbed."""
        return LedgerEntry(self.schedule.timeline, self.makespan, 0.0, 0.0, 0)


@dataclass
class _Compiled:
    """What one shape key determines, compiled on first use and shared by
    every planner of that key: immutable, content-determined artefacts
    only (the structure table changes, but only between structures the
    scheduler's ``holds`` check makes interchangeable)."""

    #: Durations of the strip-mined chunk tasks, per operation.
    chunk_costs: Dict[str, List[float]]
    #: Compiled iteration plans by shape ``(resilient, checkpoint,
    #: halo)``: the timing shapes, plus under the ranks placement the
    #: run shapes that carry the halo exchange.
    plans: Dict[Tuple[bool, bool, bool], IterationPlan] = field(
        default_factory=dict)
    #: The list scheduler's structure table for those plans.
    structures: dict = field(default_factory=dict)
    fault_free: Optional[IterationTiming] = None
    ideal_makespan: Optional[float] = None


class CGPlanner:
    """Builds, times and re-enacts the iteration shapes of one solver."""

    def __init__(self, blocked: PageBlockedMatrix, config: SolverConfig, *,
                 strategy: Optional[RecoveryStrategy], preconditioned: bool,
                 executor: ExecutionBackend, engine: KernelEngine,
                 compiled: Optional[dict] = None):
        self.blocked = blocked
        self.config = config
        self.strategy = strategy
        self.uses_recovery_tasks = (strategy is not None
                                    and strategy.uses_recovery_tasks)
        self.preconditioned = preconditioned
        #: The runtime cell the solve runs in.
        self.spec = config.runtime_spec()
        self.executor = executor
        self.engine = engine
        #: The row range strip-mined into one chunk per worker.
        self.chunk_bounds = _chunk_bounds(blocked.n, config.num_workers)
        indptr = blocked.A.indptr
        chunk_nnz = [int(indptr[hi] - indptr[lo])
                     for lo, hi in self.chunk_bounds]
        #: Simulated time of one checkpoint write, its volume taken at
        #: the simulated problem scale: the ``ckpt`` task's duration, and
        #: what the optimal interval is chosen from (``None``: the
        #: strategy writes none).
        self.checkpoint_write_time = (
            config.cost_model.checkpoint_write(
                strategy.checkpoint_bytes(blocked.n) * config.work_scale)
            if isinstance(strategy, CheckpointStrategy) else None)
        if compiled is None:
            compiled = {}  # handed no table: compile for this planner alone
        key = self._key(chunk_nnz)
        #: This planner's entry of the ``compiled`` table.
        self._compiled = compiled.get(key)
        if self._compiled is None:
            self._compiled = compiled[key] = _Compiled(
                self._chunk_costs(chunk_nnz))
        self.chunk_costs = self._compiled.chunk_costs
        # The structures travel with the plans they were discovered for.
        executor.scheduler.structures = self._compiled.structures
        #: The iteration being re-enacted, read by the shipped recovery
        #: probes.  A cell rather than an attribute so that no task body
        #: refers back to the planner that owns the action tables.
        self._iteration = [0]
        self.begin_solve()

    def begin_solve(self) -> None:
        """Start a fresh measured side (the execution fold, comm stats)
        and drop the previous solve's action tables."""
        self.engine.reset_comm_stats()
        #: The solve's re-enactments so far, folded.
        self.measured = ExecutionFold(self.executor.thread_count,
                                      wall=self.spec.measures_wall)
        #: Task bodies in run-plan order by ``(checkpoint, this_d)``,
        #: bound to one solve's vectors: dropped here and by ``close()``.
        self._actions: Dict[Tuple[bool, str], List[Optional[Callable]]] = {}

    def close(self) -> None:
        """Release the executor's threads and the action tables (which
        hold the last solve's vectors); idempotent."""
        self.executor.close()
        self._actions = {}

    # ==================================================================
    # the shape: chunks, costs, the task graph, the compiled plan
    # ==================================================================
    def _recovery_shape(self) -> Tuple[bool, int]:
        """How the strategy wires its recovery tasks: on the critical
        path or off it, and at which priority."""
        if self.strategy is None:
            return False, 0
        critical = self.strategy.recovery_in_critical_path
        return critical, 0 if critical else -1

    def _key(self, chunk_nnz: Sequence[int]) -> tuple:
        """Everything a :class:`_Compiled` entry is a function of: what
        :meth:`_chunk_costs` and :meth:`build_iteration_graph` read, and
        the scheduler the shapes are timed on.  Contents, not identities,
        so the same shape built twice is one entry."""
        cfg, executor = self.config, self.executor
        return (self.blocked.n, self.chunk_bounds, tuple(chunk_nnz),
                cfg.cost_model, cfg.work_scale, cfg.page_size,
                executor.num_workers, executor.cost_model,
                self.preconditioned, self.uses_recovery_tasks,
                self._recovery_shape(), self.checkpoint_write_time)

    def _chunk_costs(self, chunk_nnz: Sequence[int]
                     ) -> Dict[str, List[float]]:
        """Durations of the strip-mined chunk tasks, per operation."""
        cm = self.config.cost_model
        scale = self.config.work_scale
        costs: Dict[str, List[float]] = {"spmv": [], "axpy": [], "dot": [],
                                         "precond": []}
        for (start, stop), nnz in zip(self.chunk_bounds, chunk_nnz,
                                      strict=True):
            rows = stop - start
            costs["spmv"].append(cm.spmv(nnz, rows) * scale)
            costs["axpy"].append(cm.axpy_block(rows) * scale)
            costs["dot"].append(
                cm.kernel_time(2.0 * rows, 16.0 * rows) * scale)
            # Block-Jacobi triangular solves: ~2 * page_size flops/row.
            costs["precond"].append(cm.kernel_time(
                2.0 * self.config.page_size * rows, 24.0 * rows) * scale)
        return costs

    def build_iteration_graph(self, *, resilient: bool, checkpoint: bool,
                              halo: bool = False
                              ) -> Tuple[TaskGraph, Dict[str, object]]:
        """One CG iteration as a task graph (Figure 1 of the paper).

        Built once per shape and compiled (:meth:`plan`).  Task names
        are templates over the iteration number (``"beta{t}"``);
        recovery tasks carry the duration of a scan that finds nothing.
        Also returns the roles the consumers look up by index: the two
        scalars, the recovery tasks and every chunk group.

        ``halo`` builds the *run shape* of the ranks placement.  A
        ``halo{t}`` task of :class:`TaskKind.COMMUNICATION` really moves
        the halo of the current search direction over the rank channels
        when executed (a read-only probe: it writes the same ``d`` values
        the preceding spmv already exchanged), so it has a measurable
        wall interval; every spmv chunk waits for it and reads
        ``halo:d``.  It has duration 0.0 and exists only in the run
        shape — the timing shapes, and so the simulated timeline, never
        see it, which is what keeps every runtime cell's simulated
        decisions bit-identical.  For strategies with
        off-critical-path recovery (AFEIR), ``r1`` is wired to the
        d-update chunks instead of the spmv chunks, so it becomes *ready*
        at the same moment the halo exchange starts: the paper's claim
        that exact forward recovery overlaps the neighbour
        communication.  Critical-path strategies (FEIR) keep their
        reduction-chain dependencies, so they structurally cannot
        overlap the halo — the measured contrast the solve reports.
        """
        cm = self.config.cost_model
        graph = TaskGraph()
        t = "{t}"
        critical, rec_priority = self._recovery_shape()
        check = cm.recovery_check()
        dot_cost = self.chunk_costs["dot"]
        axpy_cost = self.chunk_costs["axpy"]

        precond_names: List[str] = []
        if self.preconditioned:
            for c, dur in enumerate(self.chunk_costs["precond"]):
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
        d_segments = {f"seg:d[{k}]" for k in range(len(d_parts))}
        q_deps, q_reads = d_parts, d_segments
        if halo:
            # the spmv consumes the freshly-exchanged halo values
            q_deps, q_reads = [*d_parts, f"halo{t}"], d_segments | {"halo:d"}
        q_parts: List[str] = []
        for c, dur in enumerate(self.chunk_costs["spmv"]):
            name = f"q{t}:{c}"
            graph.add_task(name, dur, kind=TaskKind.COMPUTE, deps=q_deps,
                           reads=q_reads, writes={f"seg:q[{c}]"})
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
            r1_deps = (dq_parts if critical
                       else d_parts if halo else q_parts)
            graph.add_task(f"r1_{t}", check, kind=TaskKind.RECOVERY,
                           priority=rec_priority, deps=r1_deps)
            scalar_alpha_deps.append(f"r1_{t}")
        graph.add_task(f"alpha{t}", cm.scalar_task(), kind=TaskKind.REDUCTION,
                       deps=scalar_alpha_deps,
                       reads={f"part:dq[{c}]" for c in range(len(dq_parts))},
                       writes={"scalar:alpha"})

        # --- x and g updates ----------------------------------------------------
        x_parts: List[str] = []
        g_parts: List[str] = []
        for v, step, parts in (("x", "d", x_parts), ("g", "q", g_parts)):
            for c, dur in enumerate(axpy_cost):
                name = f"{v}{t}:{c}"
                graph.add_task(name, dur, kind=TaskKind.COMPUTE,
                               deps=[f"alpha{t}"],
                               reads={"scalar:alpha", f"seg:{step}[{c}]",
                                      f"seg:{v}[{c}]"},
                               writes={f"seg:{v}[{c}]"})
                parts.append(name)
        update_parts = x_parts + g_parts
        if resilient:
            r3_deps = update_parts if critical else [f"alpha{t}"]
            graph.add_task(f"r3_{t}", check, kind=TaskKind.RECOVERY,
                           priority=rec_priority, deps=r3_deps)

        # --- checkpoint write ----------------------------------------------------
        if checkpoint and self.checkpoint_write_time is not None:
            graph.add_task(f"ckpt{t}", self.checkpoint_write_time,
                           kind=TaskKind.CHECKPOINT, deps=update_parts,
                           reads={f"seg:{v}[{c}]"
                                  for v in ("x", "g")
                                  for c in range(len(self.chunk_bounds))})

        # --- halo exchange (run shape of the ranks placement) --------------------
        # Added last, so every other task keeps its timing-shape index and
        # a timing durations vector extends to the run shape by one 0.0.
        if halo:
            graph.add_task(f"halo{t}", 0.0, kind=TaskKind.COMMUNICATION,
                           deps=d_parts, reads=d_segments, writes={"halo:d"})

        roles: Dict[str, object] = {
            "beta": f"beta{t}", "alpha": f"alpha{t}", "z": precond_names,
            "rho": rho_parts, "d": d_parts, "q": q_parts, "dq": dq_parts,
            "x": x_parts, "g": g_parts}
        if resilient:
            roles.update((key, f"{key}_{t}") for key in RECOVERY_TASKS)
        for key in ("halo", "ckpt"):
            if f"{key}{t}" in graph:
                roles[key] = f"{key}{t}"
        return graph, roles

    def plan(self, resilient: bool, checkpoint: bool,
             halo: bool = False) -> IterationPlan:
        """The compiled plan of one iteration shape, built on first use
        by any planner sharing this one's table: validated and
        cycle-checked exactly once."""
        plans, shape = self._compiled.plans, (resilient, checkpoint, halo)
        plan = plans.get(shape)
        if plan is None:
            graph, roles = self.build_iteration_graph(
                resilient=resilient, checkpoint=checkpoint, halo=halo)
            plan = plans[shape] = compile_plan(graph, roles)
        return plan

    def run_plan(self, checkpoint: bool) -> IterationPlan:
        """The shape the re-enactment executes: the timing plan itself,
        or its halo-exchange variant under the ranks placement."""
        return self.plan(self.uses_recovery_tasks, checkpoint,
                         halo=self.spec.placement == "ranks")

    # ==================================================================
    # consumer 1: the simulated timeline
    # ==================================================================
    def ideal_iteration_time(self) -> float:
        """Makespan of one fault-free iteration without resilience tasks."""
        compiled = self._compiled
        if compiled.ideal_makespan is None:
            compiled.ideal_makespan = self.executor.simulate(
                self.plan(False, False)).makespan
        return compiled.ideal_makespan

    def time_iteration(self, clock: float, checkpoint: bool,
                       next_fault: float = math.inf) -> IterationTiming:
        """Timing pass 1: the iteration starting at ``clock`` with
        fault-free recovery durations.

        The schedule of the plain (no checkpoint) shape is the same
        relative to every start time, so it is computed once and reused
        for every iteration that ends before ``next_fault`` is due.  One
        a fault may reach is re-timed (replayed) at ``clock``, not shifted:
        ``(clock + a) - clock`` is not ``a`` in floating point, and its
        bits reach ``solve_time`` and the A-D classification.
        """
        if not checkpoint:
            fault_free = self._compiled.fault_free
            if fault_free is None:
                fault_free = self._compiled.fault_free = self._timing(
                    self.executor.simulate(
                        self.plan(self.uses_recovery_tasks, False)))
            if next_fault > clock + fault_free.makespan:
                return fault_free
        return self._timing(self.executor.simulate(
            self.plan(self.uses_recovery_tasks, checkpoint),
            start_time=clock))

    @staticmethod
    def _timing(sched: ScheduleResult) -> IterationTiming:
        """Check-point times relative to the schedule's start time."""
        roles, starts, base = sched.plan.roles, sched.starts, sched.start_time
        points = {"A": starts[roles["beta"]] - base,
                  "B": min(map(starts.__getitem__, roles["q"])) - base,
                  "C": starts[roles["alpha"]] - base,
                  "D": sched.makespan}
        for key, point in (("r1", "C"), ("r2", "A"), ("r3", "D")):
            points[key] = (starts[roles[key]] - base if key in roles
                           else points[point])
        return IterationTiming(sched.makespan, points, sched)

    def recovery_durations(self, checkpoint: bool,
                           recovery_work: Dict[str, float]) -> List[float]:
        """The resilient shape's durations vector with each recovery
        task enlarged by the work its check points' faults caused."""
        plan = self.plan(True, checkpoint)
        check = self.config.cost_model.recovery_check()
        durations = list(plan.durations)
        for key, value in recovery_work.items():
            durations[plan.roles[key]] = check + value
        return durations

    def retime(self, clock: float, checkpoint: bool,
               durations: Sequence[float]) -> ScheduleResult:
        """Timing pass 2: the resilient shape from ``clock`` with the
        actual recovery ``durations`` (:meth:`recovery_durations`)."""
        return self.executor.simulate(self.plan(True, checkpoint),
                                     start_time=clock, durations=durations)

    # ==================================================================
    # consumer 2: the real (threaded / wall-clock) re-enactment
    # ==================================================================
    def reenact(self, iteration: int, checkpoint: bool, state: CGState,
                this_d: str, durations: Optional[Sequence[float]] = None
                ) -> None:
        """Re-enact one iteration's run shape for real (read-only).

        The executor gets the compiled run plan, the solve's action
        table and ``durations`` — the enlarged recovery durations when
        this iteration repaired faults, so pacing charges the same
        recovery work the simulated timeline does.  (A timing shape and
        its run shape index their common tasks alike: the halo task of
        the latter comes last and takes 0.0.)  Every task carries a real
        (read-only, bitwise-neutral) action: partial dot products for
        the reduction chunks, memory touches for the vector-update
        chunks, and a scan that finds nothing for the r1/r2/r3 tasks —
        shipped to the owning rank under the ranks placement.  The
        solve's fold takes the measured result; under the simulated
        clock it keeps only the counts (the execution still happens, so
        races and ordering are exercised).
        """
        plan = self.run_plan(checkpoint)
        if durations is not None and "halo" in plan.roles:
            durations = [*durations, 0.0]
        self._iteration[0] = iteration
        result = self.executor.execute(
            plan, self._action_table(plan, checkpoint, state, this_d),
            durations)
        roles = plan.roles
        windows = (LATE_WINDOWS if self.uses_recovery_tasks
                   and not self.strategy.recovery_in_critical_path else {})
        self.measured.add(result, [(roles[COVERING_TASK[point]],
                                    roles[scalar])
                                   for point, (scalar, _) in windows.items()])

    def _action_table(self, plan: IterationPlan, checkpoint: bool,
                      state: CGState, this_d: str
                      ) -> List[Optional[Callable]]:
        """The real executable body of every task of ``plan``, in plan
        order — bound on first use to the solve's vectors (their arrays
        are stable for a solve; ``this_d`` picks the buffer of the
        double-buffered search direction) and reused by every iteration.
        """
        table = self._actions.get((checkpoint, this_d))
        if table is not None:
            return table
        vectors = state.vectors
        chunks = {name: [vectors[name].array[lo:hi]
                         for lo, hi in self.chunk_bounds]
                  for name in ("x", "g", "q", this_d)}
        roles = plan.roles
        table = self._actions[(checkpoint, this_d)] = [None] * len(plan)
        for role, operands in (("z", ("g",)), ("rho", ("g", "g")),
                               ("d", (this_d,)), ("q", ("q",)),
                               ("dq", (this_d, "q")), ("x", ("x",)),
                               ("g", ("g",))):
            body = _dot_chunk if len(operands) == 2 else _touch_chunk
            for c, index in enumerate(roles[role]):
                table[index] = partial(body, *(chunks[v][c]
                                               for v in operands))
        if "ckpt" in roles:
            table[roles["ckpt"]] = partial(_touch_chunk, vectors["x"].array)
        if "halo" in roles:
            table[roles["halo"]] = partial(self.engine.halo_exchange,
                                           vectors[this_d].array)
        if self.uses_recovery_tasks:
            probe = _scan
            if self.spec.placement == "ranks":
                probe = partial(_shipped_probe, probe, self.engine,
                                self._iteration, vectors["x"].num_pages)
            for key in RECOVERY_TASKS:
                table[roles[key]] = probe
        return table
