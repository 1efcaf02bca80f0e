"""The shape of a resilient CG iteration: one plan, three projections.

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
    work (pass 2); both go through ``executor.simulate(plan, ...)``.
*where are the check points*
    every timing carries the start of ``A``/``B``/``C``/``D`` and of
    ``r1``/``r2``/``r3`` relative to the iteration's start
    (:class:`IterationTiming`).
*run it*
    :meth:`~CGPlanner.reenact` projects the plan back into a task graph
    named for one iteration, splices in the ranks placement's halo
    exchange, attaches real (read-only) task bodies and executes it on
    the threaded / wall-clock cells, feeding the measured side
    (vulnerable-window monitor, wall clock, wall trace).

The solver (:mod:`repro.solvers.resilient_cg`) therefore holds a plan
instead of building one: the recurrence and the fault-point state
machine never see a task graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.checkpoint import CheckpointStrategy
from repro.core.strategy import RecoveryStrategy
from repro.matrices.blocked import PageBlockedMatrix
from repro.runtime.async_exec import VulnerableWindowMonitor
from repro.runtime.backend import ExecutionBackend, ExecutionResult
from repro.runtime.graph import TaskGraph
from repro.runtime.kernels import KernelEngine
from repro.runtime.plan import IterationPlan, compile_plan
from repro.runtime.runtime import RuntimeSpec
from repro.runtime.scheduler import ScheduleResult
from repro.runtime.task import TaskKind
from repro.runtime.trace import ExecutionTrace
from repro.solvers.cg_types import CGState, SolverConfig

#: The recovery tasks of a resilient iteration, and the check point each
#: one covers (the point's faults enlarge that task).
RECOVERY_TASKS = ("r1", "r2", "r3")
COVERING_TASK = {"A": "r2", "B": "r1", "C": "r1", "D": "r3"}


@dataclass(frozen=True)
class IterationTiming:
    """One timed iteration, relative to the clock it started at."""

    makespan: float
    #: Start of check points ``A``-``D`` and of ``r1``/``r2``/``r3``
    #: (without recovery tasks the covering scalar's point stands in).
    points: Dict[str, float]
    trace: ExecutionTrace


class CGPlanner:
    """Builds, times and re-enacts the iteration shapes of one solver."""

    def __init__(self, blocked: PageBlockedMatrix, config: SolverConfig, *,
                 strategy: Optional[RecoveryStrategy], preconditioned: bool,
                 spec: RuntimeSpec, executor: ExecutionBackend,
                 engine: KernelEngine):
        self.blocked = blocked
        self.config = config
        self.strategy = strategy
        self.uses_recovery_tasks = (strategy is not None
                                    and strategy.uses_recovery_tasks)
        self.preconditioned = preconditioned
        self.spec = spec
        self.executor = executor
        self.engine = engine
        bounds = np.linspace(0, blocked.n, config.num_workers + 1).astype(int)
        #: The row range strip-mined into one chunk per worker.
        self.chunk_bounds = [(int(lo), int(hi)) for lo, hi
                             in zip(bounds[:-1], bounds[1:], strict=True)
                             if hi > lo]
        self.chunk_costs = self._chunk_costs()
        #: Compiled iteration plans by shape ``(resilient, checkpoint)``.
        self._plans: Dict[Tuple[bool, bool], IterationPlan] = {}
        self._fault_free: Optional[IterationTiming] = None
        self.begin_solve()

    def begin_solve(self) -> None:
        """Start a fresh measured side (monitor, wall clock, wall trace)."""
        self.monitor = VulnerableWindowMonitor()
        #: Measured wall-clock seconds of the re-enactments so far.
        self.wall_clock = 0.0
        self.wall_trace: Optional[ExecutionTrace] = None

    # ==================================================================
    # the shape: chunks, costs, the task graph, the compiled plan
    # ==================================================================
    def _chunk_costs(self) -> Dict[str, List[float]]:
        """Durations of the strip-mined chunk tasks, per operation."""
        cm = self.config.cost_model
        scale = self.config.work_scale
        indptr = self.blocked.A.indptr
        costs: Dict[str, List[float]] = {"spmv": [], "axpy": [], "dot": [],
                                         "precond": []}
        for (start, stop) in self.chunk_bounds:
            rows = stop - start
            nnz = int(indptr[stop] - indptr[start])
            costs["spmv"].append(
                cm.kernel_time(2.0 * nnz, nnz * 12.0 + rows * 8.0) * scale)
            costs["axpy"].append(
                cm.kernel_time(2.0 * rows, 24.0 * rows) * scale)
            costs["dot"].append(
                cm.kernel_time(2.0 * rows, 16.0 * rows) * scale)
            # Block-Jacobi triangular solves: ~2 * page_size flops/row.
            costs["precond"].append(cm.kernel_time(
                2.0 * self.config.page_size * rows, 24.0 * rows) * scale)
        return costs

    def build_iteration_graph(self, *, resilient: bool, checkpoint: bool
                              ) -> Tuple[TaskGraph, Dict[str, object]]:
        """One CG iteration as a task graph (Figure 1 of the paper).

        Built once per shape and compiled (:meth:`plan`).  Task names
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
        q_parts: List[str] = []
        for c, dur in enumerate(self.chunk_costs["spmv"]):
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
            volume = (self.strategy.checkpoint_bytes(self.blocked.n)
                      * self.config.work_scale)
            graph.add_task(f"ckpt{t}", cm.checkpoint_write(volume),
                           kind=TaskKind.CHECKPOINT, deps=update_parts,
                           reads={f"seg:{v}[{c}]"
                                  for v in ("x", "g")
                                  for c in range(len(self.chunk_bounds))})

        roles: Dict[str, object] = {"beta": f"beta{t}", "alpha": f"alpha{t}",
                                    "q": q_parts}
        if resilient:
            roles.update((key, f"{key}_{t}") for key in RECOVERY_TASKS)
        return graph, roles

    def plan(self, resilient: bool, checkpoint: bool) -> IterationPlan:
        """The compiled plan of one iteration shape, built on first use."""
        shape = (resilient, checkpoint)
        plan = self._plans.get(shape)
        if plan is None:
            graph, roles = self.build_iteration_graph(resilient=resilient,
                                                      checkpoint=checkpoint)
            plan = self._plans[shape] = compile_plan(graph, roles)
        return plan

    # ==================================================================
    # projection 1: the simulated timeline
    # ==================================================================
    def ideal_iteration_time(self) -> float:
        """Makespan of one fault-free iteration without resilience tasks."""
        return self.executor.simulate(self.plan(False, False)).makespan

    def time_iteration(self, clock: float, checkpoint: bool,
                       next_fault: float = math.inf) -> IterationTiming:
        """Timing pass 1: the iteration starting at ``clock`` with
        fault-free recovery durations.

        The schedule of the plain (no checkpoint) shape is the same
        relative to every start time, so it is computed once and reused
        for every iteration that ends before ``next_fault`` is due.
        """
        if not checkpoint:
            if self._fault_free is None:
                self._fault_free = self._timing(self.executor.simulate(
                    self.plan(self.uses_recovery_tasks, False)))
            if next_fault > clock + self._fault_free.makespan:
                return self._fault_free
        return self._timing(self.executor.simulate(
            self.plan(self.uses_recovery_tasks, checkpoint),
            start_time=clock))

    @staticmethod
    def _timing(sched: ScheduleResult) -> IterationTiming:
        """Check-point times relative to the schedule's start time."""
        roles, starts, base = sched.plan.roles, sched.starts, sched.start_time
        points = {"A": starts[roles["beta"]] - base,
                  "B": min(starts[i] for i in roles["q"]) - base,
                  "C": starts[roles["alpha"]] - base,
                  "D": sched.makespan}
        for key, point in (("r1", "C"), ("r2", "A"), ("r3", "D")):
            points[key] = (starts[roles[key]] - base if key in roles
                           else points[point])
        return IterationTiming(sched.makespan, points, sched.trace)

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
    # projection 2: the real (threaded / wall-clock) re-enactment
    # ==================================================================
    def reenact(self, iteration: int, checkpoint: bool, state: CGState,
                this_d: str, durations: Optional[Sequence[float]] = None
                ) -> None:
        """Re-enact one iteration's task graph for real (read-only).

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
        plan = self.plan(self.uses_recovery_tasks, checkpoint)
        graph = plan.to_graph(durations, names=[name.format(t=iteration)
                                                for name in plan.names])
        if self.spec.placement == "ranks":
            self._add_halo_reenactment(graph, iteration, state, this_d)
        self._attach_real_actions(graph, iteration, state, this_d)
        # execute(), not run(): the simulated timeline of this iteration
        # is already known (pass 1 / template), so only the measured side
        # is computed here.
        result = self.executor.execute(graph)
        if not self.spec.measures_wall:
            result.wall_intervals = {}
            result.wall_time = 0.0
        pairs = (tuple(self.strategy.vulnerable_pairs(iteration))
                 if self.uses_recovery_tasks else ())
        self.monitor.observe(result, pairs)
        if self.spec.measures_wall:
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
                   (f"d{t}:{c}" for c in range(len(self.chunk_bounds)))
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
                              for c in range(len(self.chunk_bounds))},
                       writes={"halo:d"})
        for c in range(len(self.chunk_bounds)):
            name = f"q{t}:{c}"
            if name in graph:
                task = graph.task(name).depends_on(halo_name)
                # the spmv consumes the freshly-exchanged halo values
                task.reads = task.reads | {"halo:d"}
        if (self.uses_recovery_tasks
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

        for c, (start, stop) in enumerate(self.chunk_bounds):
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
            distributed = self.spec.placement == "ranks"
            num_pages = vectors["x"].num_pages
            for key in RECOVERY_TASKS:
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
            graph.task(ckpt_name).action = touch_chunk(
                x, slice(0, self.blocked.n))

    def _accumulate_wall(self, result: ExecutionResult) -> None:
        self.wall_clock += result.wall_time
        threads = getattr(self.executor, "thread_count",
                          self.executor.num_workers)
        step = ExecutionTrace(num_workers=threads)
        step.breakdown.add(result.measured_breakdown(threads))
        step.wall_time = result.wall_time
        step.task_count = len(result.wall_intervals)
        if self.wall_trace is None:
            self.wall_trace = step
        else:
            self.wall_trace.accumulate(step)
