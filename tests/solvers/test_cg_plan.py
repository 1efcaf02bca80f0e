"""The iteration-plan owner on its own: no solve loop anywhere.

:class:`~repro.solvers.cg_plan.CGPlanner` is built from a matrix, a
config and a strategy and asked the three questions the solver asks it:
where are the check points, how long does this shape take with this
recovery work, and what does the real re-enactment hand the executor —
which compiled run shape, which action table.
"""

import copy
import gc
import weakref

import numpy as np
import pytest

from repro.core.manager import make_strategy
from repro.core.relations import MatVecRelation, ResidualRelation
from repro.matrices.blocked import PageBlockedMatrix
from repro.matrices.laplacian import laplacian_2d
from repro.matrices.stencil import stencil_rhs
from repro.memory.manager import MemoryManager
from repro.memory.pages import PagedVector
from repro.runtime.backend import SimulatedBackend
from repro.runtime.graph import TaskGraph, find_races, verify_graph
from repro.runtime.kernels import make_kernel_engine
from repro.runtime.task import TaskKind
from repro.solvers.cg_plan import RECOVERY_TASKS, CGPlanner
from repro.solvers.resilient_cg import CGState, ResilientCG, SolverConfig

PAGE = 16
WORKERS = 4
METHODS = [None, "FEIR", "AFEIR", "ckpt"]


class RecordingBackend(SimulatedBackend):
    """The list executor, keeping what it is asked to execute."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.executed = []

    def execute(self, plan, actions=None, durations=None):
        self.executed.append((plan, actions, durations))
        return super().execute(plan, actions, durations)


@pytest.fixture(scope="module")
def blocked():
    return PageBlockedMatrix(laplacian_2d(12), page_size=PAGE)


def make_planner(blocked, method, **axes):
    config = SolverConfig(page_size=PAGE, num_workers=WORKERS, pace=0.0,
                          **axes)
    strategy = (make_strategy(method, checkpoint_interval=5)
                if method else None)
    return CGPlanner(blocked, config, strategy=strategy, preconditioned=False,
                     executor=RecordingBackend(WORKERS, config.cost_model),
                     engine=make_kernel_engine(blocked, config.runtime_spec()))


def make_state(blocked):
    b = stencil_rhs(blocked.A, kind="random", seed=11)
    memory = MemoryManager()
    vectors = {name: memory.register(PagedVector(blocked.n, name=name,
                                                 page_size=PAGE))
               for name in ResilientCG.PROTECTED}
    for k, vec in enumerate(vectors.values()):
        vec.fill_from(np.arange(blocked.n, dtype=np.float64) + k)
    return CGState(blocked=blocked, b=b, vectors=vectors, memory=memory,
                   residual_relation=ResidualRelation(blocked, b),
                   matvec_relation=MatVecRelation(blocked),
                   config=SolverConfig(page_size=PAGE))


class TestShapes:
    @pytest.mark.parametrize("checkpoint", [False, True],
                             ids=["plain", "checkpoint"])
    @pytest.mark.parametrize("method", METHODS)
    def test_roles_resolve_and_points_are_ordered(self, blocked, method,
                                                  checkpoint):
        planner = make_planner(blocked, method)
        resilient = planner.uses_recovery_tasks
        assert resilient == (method in ("FEIR", "AFEIR"))
        plan = planner.plan(resilient, checkpoint)
        names = plan.names
        assert names[plan.roles["beta"]] == "beta{t}"
        assert names[plan.roles["alpha"]] == "alpha{t}"
        assert [names[i] for i in plan.roles["q"]] == \
            [f"q{{t}}:{c}" for c in range(len(planner.chunk_bounds))]
        assert (set(RECOVERY_TASKS) <= set(plan.roles)) == resilient
        assert ("ckpt{t}" in names) == (checkpoint and method == "ckpt")

        timing = planner.time_iteration(0.0, checkpoint)
        p = timing.points
        assert 0.0 <= p["A"] <= p["B"] <= p["C"] <= p["D"] == timing.makespan
        if not resilient:
            # the covering scalar's point stands in for the missing task
            assert (p["r2"], p["r1"], p["r3"]) == (p["A"], p["C"], p["D"])
        if checkpoint and method == "ckpt":
            assert timing.makespan > planner.time_iteration(0.0, False).makespan

    def test_afeir_recovery_starts_before_the_scalar_it_covers(self, blocked):
        planner = make_planner(blocked, "AFEIR")
        plan = planner.plan(True, False)
        p = planner.time_iteration(0.0, False).points
        assert p["r2"] <= p["A"] and p["r1"] <= p["C"]
        # off the critical path: r2 waits for nothing, r1 only for A*d
        assert plan.deps[plan.roles["r2"]] == ()
        assert set(plan.deps[plan.roles["r1"]]) == set(plan.roles["q"])

    def test_feir_barriers_sit_in_the_reduction_chain(self, blocked):
        planner = make_planner(blocked, "FEIR")
        plan = planner.plan(True, False)
        names = plan.names
        chunks = range(len(planner.chunk_bounds))
        for task, parts, scalar in (("r2", "rho", "beta"),
                                    ("r1", "dq", "alpha")):
            barrier = plan.roles[task]
            assert {names[d] for d in plan.deps[barrier]} == \
                {f"{parts}{{t}}:{c}" for c in chunks}
            assert barrier in plan.deps[plan.roles[scalar]]
        assert {names[d] for d in plan.deps[plan.roles["r3"]]} == \
            {f"{v}{{t}}:{c}" for v in "xg" for c in chunks}
        p = planner.time_iteration(0.0, False).points
        assert p["r2"] <= p["A"] <= p["r1"] <= p["C"] <= p["r3"]

    def test_a_shape_is_compiled_once(self, blocked):
        planner = make_planner(blocked, "AFEIR")
        assert planner.plan(True, False) is planner.plan(True, False)
        assert planner.time_iteration(0.0, False) is \
            planner.time_iteration(7.5, False)          # no fault due
        assert planner.time_iteration(0.0, False, next_fault=1e-9) is not \
            planner.time_iteration(0.0, False)

    def test_point_times_are_relative_to_the_start(self, blocked):
        planner = make_planner(blocked, "AFEIR")
        at_zero = planner.time_iteration(0.0, False)
        late = planner.time_iteration(3.25, False, next_fault=3.25)
        sched = planner.executor.simulate(planner.plan(True, False),
                                         start_time=3.25)
        assert late.makespan == sched.makespan
        assert late.points["C"] == \
            sched.starts[sched.plan.roles["alpha"]] - 3.25
        assert late.points.keys() == at_zero.points.keys()


class TestRetiming:
    @pytest.mark.parametrize("checkpoint", [False, True])
    @pytest.mark.parametrize("method", ["FEIR", "AFEIR"])
    def test_recovery_work_retimes_like_the_backend(self, blocked, method,
                                                    checkpoint):
        planner = make_planner(blocked, method)
        work = {"r1": 1.7e-4, "r2": 0.0, "r3": 2.3e-3}
        durations = planner.recovery_durations(checkpoint, work)
        plan = planner.plan(True, checkpoint)
        check = planner.config.cost_model.recovery_check()
        for key in RECOVERY_TASKS:
            assert durations[plan.roles[key]] == check + work[key]
        untouched = set(range(len(plan))) - {plan.roles[k]
                                             for k in RECOVERY_TASKS}
        assert all(durations[i] == plan.durations[i] for i in untouched)

        clock = 0.1 + 0.2
        ours = planner.retime(clock, checkpoint, durations)
        theirs = SimulatedBackend(WORKERS, planner.config.cost_model) \
            .simulate(plan, start_time=clock, durations=durations)
        assert ours.makespan == theirs.makespan
        assert list(ours.starts) == list(theirs.starts)
        assert list(ours.ends) == list(theirs.ends)
        assert ours.trace.breakdown == theirs.trace.breakdown
        assert ours.makespan > planner.time_iteration(clock, checkpoint,
                                                      clock).makespan

    def test_negative_durations_are_rejected_on_every_retime(self, blocked):
        planner = make_planner(blocked, "FEIR")
        durations = planner.recovery_durations(False, dict.fromkeys(
            RECOVERY_TASKS, 0.0))
        durations[0] = -1.0
        with pytest.raises(ValueError, match="negative duration"):
            planner.retime(0.0, False, durations)


class TestRunShape:
    """The shape the re-enactment executes, compiled like any other."""

    @pytest.mark.parametrize("method", METHODS)
    def test_local_placement_runs_the_timing_plan_itself(self, blocked,
                                                         method):
        planner = make_planner(blocked, method, clock="wall")
        for checkpoint in (False, True):
            plan = planner.run_plan(checkpoint)
            assert plan is planner.plan(planner.uses_recovery_tasks,
                                        checkpoint)
            assert "halo" not in plan.roles
            assert "halo{t}" not in plan.names

    @pytest.mark.parametrize("checkpoint", [False, True],
                             ids=["plain", "checkpoint"])
    @pytest.mark.parametrize("method", METHODS)
    def test_ranks_placement_adds_the_halo_exchange(self, blocked, method,
                                                    checkpoint):
        planner = make_planner(blocked, method, clock="wall", ranks=2)
        try:
            resilient = planner.uses_recovery_tasks
            timing = copy.deepcopy(planner.plan(resilient, checkpoint))
            plan = planner.run_plan(checkpoint)
            assert planner.run_plan(checkpoint) is plan   # compiled once
            # the plan the timing passes use never sees the halo task
            assert planner.plan(resilient, checkpoint) == timing
            assert "halo{t}" not in timing.names
        finally:
            planner.engine.close()
        roles, names = plan.roles, plan.names
        halo = roles["halo"]
        assert names[halo] == "halo{t}" and halo == len(timing)
        assert plan.kinds[halo] is TaskKind.COMMUNICATION
        assert plan.durations[halo] == 0.0
        assert plan.resources[halo][1] == {"halo:d"}   # (reads, writes)
        assert plan.deps[halo] == roles["d"]
        for q in roles["q"]:
            assert halo in plan.deps[q]
            assert "halo:d" in plan.resources[q][0]   # (reads, writes)
        # every other task keeps its index, name, duration and kind
        assert names[:halo] == timing.names
        assert plan.durations[:halo] == timing.durations
        assert plan.kinds[:halo] == timing.kinds
        assert {k: v for k, v in roles.items() if k != "halo"} == timing.roles
        if method == "AFEIR":
            # ready together with the halo exchange: recovery overlaps it
            assert plan.deps[roles["r1"]] == roles["d"]
        elif method == "FEIR":
            assert plan.deps[roles["r1"]] == roles["dq"]
        for i in set(range(halo)) - set(roles["q"]) - {roles.get("r1")}:
            assert plan.deps[i] == timing.deps[i]

    @pytest.mark.parametrize("method", ["FEIR", "AFEIR", "ckpt"])
    def test_run_shape_graph_is_race_free(self, blocked, method):
        planner = make_planner(blocked, method, ranks=2)
        planner.engine.close()
        for checkpoint in (False, True):
            graph, _ = planner.build_iteration_graph(
                resilient=planner.uses_recovery_tasks, checkpoint=checkpoint,
                halo=True)
            assert find_races(graph) == []


class TestReenactment:
    def reenacted(self, blocked, method, iterations=(7,), **axes):
        planner = make_planner(blocked, method, **axes)
        state = make_state(blocked)
        try:
            for t in iterations:
                planner.reenact(t, False, state, "d0" if t % 2 else "d1")
        finally:
            planner.engine.close()
        return planner, planner.executor.executed

    @pytest.mark.parametrize("method", METHODS)
    def test_every_task_of_the_run_plan_gets_a_body(self, blocked, method):
        planner, ((plan, actions, durations),) = self.reenacted(
            blocked, method, clock="wall")
        assert plan is planner.run_plan(False)
        assert durations is None and len(actions) == len(plan)
        assert all(actions[i] is not None for i in range(len(plan))
                   if plan.kinds[i] is not TaskKind.REDUCTION
                   or ":" in plan.names[i])
        verify_graph(planner.build_iteration_graph(
            resilient=planner.uses_recovery_tasks, checkpoint=False)[0])
        assert planner.monitor.summary()["runs"] == 1
        assert planner.wall_trace is not None
        assert planner.wall_trace.task_count == len(plan)

    def test_action_table_is_bound_once_per_buffer_and_solve(
            self, blocked, monkeypatch):
        built = []
        original = TaskGraph.__init__

        def counting(graph):
            built.append(graph)
            original(graph)

        monkeypatch.setattr(TaskGraph, "__init__", counting)
        planner, executed = self.reenacted(
            blocked, "AFEIR", iterations=(1, 2, 3, 4), clock="wall")
        assert len(built) == 1                  # the one shape, once
        plans = {id(plan) for plan, _, _ in executed}
        assert len(plans) == 1
        tables = [actions for _, actions, _ in executed]
        assert tables[0] is tables[2] and tables[1] is tables[3]
        assert tables[0] is not tables[1]       # d0 / d1 buffers
        assert planner.monitor.summary()["recovery_scans"] == 12
        planner.begin_solve()                   # a new solve, new vectors
        assert planner._actions == {}

    @pytest.mark.ranks
    def test_ranks_probe_reads_the_iteration_number(self, blocked):
        planner = make_planner(blocked, "AFEIR", clock="wall", ranks=2)
        shipped = []

        def run_on_rank(rank, fn):
            shipped.append(rank)
            return fn()

        planner.engine.run_on_rank = run_on_rank
        state = make_state(blocked)
        num_pages = state.vectors["x"].num_pages
        try:
            for t in (2, 4, num_pages + 2):
                planner.reenact(t, False, state, "d1")
        finally:
            planner.engine.close()
        owner = planner.engine.page_owner
        assert shipped == [owner(2)] * 3 + [owner(4)] * 3 + [owner(2)] * 3
        plan, actions, _ = planner.executor.executed[-1]
        assert plan is planner.run_plan(False) and "halo" in plan.roles
        assert actions[plan.roles["halo"]] is not None

    def test_recovery_durations_extend_to_the_run_shape(self, blocked):
        planner = make_planner(blocked, "FEIR", clock="wall", ranks=2)
        durations = planner.recovery_durations(False, {"r1": 1e-3})
        try:
            planner.reenact(1, False, make_state(blocked), "d0", durations)
        finally:
            planner.engine.close()
        ((plan, _, ran),) = planner.executor.executed
        assert ran == [*durations, 0.0] and len(ran) == len(plan)
        assert ran[plan.roles["r1"]] == durations[plan.roles["r1"]] > 1e-3

    def test_simulated_clock_discards_the_wall_side(self, blocked):
        planner = make_planner(blocked, "AFEIR", scheduler="threaded")
        planner.executor.close()          # RecordingBackend stands in
        planner.reenact(1, False, make_state(blocked), "d0")
        assert planner.monitor.summary()["runs"] == 1
        assert planner.wall_clock == 0.0 and planner.wall_trace is None


@pytest.mark.ranks
def test_closed_solver_is_freed_without_the_cycle_collector(blocked):
    """The action tables hold closures over the solve's vectors, the
    engine and the monitor; none may lead back to their owner, or every
    closed solver would wait for the cycle collector with its vectors,
    matrix strips and threads (measured: +10 MiB on ``solve_cells``)."""
    b = stencil_rhs(blocked.A, kind="random", seed=11)
    config = SolverConfig(page_size=PAGE, num_workers=WORKERS, pace=0.0,
                          scheduler="threaded", placement="ranks",
                          clock="wall", ranks=2)
    gc.collect()
    gc.disable()
    try:
        solver = ResilientCG(blocked.A, b, strategy=make_strategy("AFEIR"),
                             config=config)
        assert solver.solve().converged
        planner = solver.planner
        assert len(planner._actions) == 2          # bound for d0 and d1
        table = next(iter(planner._actions.values()))
        # the shipped r1 probe holds the solve's memory (all its vectors)
        memory = table[planner.run_plan(False).roles["r1"]].args[2]
        alive = [weakref.ref(obj) for obj in (
            solver, planner, planner.executor, planner.monitor,
            solver.engine, memory)]
        del table, memory
        solver.close()
        assert planner._actions == {}
        del solver, planner
        assert [ref() for ref in alive] == [None] * len(alive)
    finally:
        gc.enable()
