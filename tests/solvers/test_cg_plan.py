"""The iteration-plan owner on its own: no solve loop anywhere.

:class:`~repro.solvers.cg_plan.CGPlanner` is built from a matrix, a
config and a strategy and asked the three questions the solver asks it:
where are the check points, how long does this shape take with this
recovery work, and what does the real re-enactment of iteration ``t``
look like.
"""

import numpy as np
import pytest

from repro.core.manager import make_strategy
from repro.core.relations import MatVecRelation, ResidualRelation
from repro.matrices.blocked import PageBlockedMatrix
from repro.matrices.stencil import poisson_2d_5pt, stencil_rhs
from repro.memory.manager import MemoryManager
from repro.memory.pages import PagedVector
from repro.runtime.backend import SimulatedBackend
from repro.runtime.graph import find_races, verify_graph
from repro.runtime.kernels import make_kernel_engine
from repro.runtime.runtime import resolve_runtime_spec
from repro.runtime.task import TaskKind
from repro.solvers.cg_plan import RECOVERY_TASKS, CGPlanner
from repro.solvers.resilient_cg import CGState, ResilientCG, SolverConfig

PAGE = 16
WORKERS = 4
METHODS = [None, "FEIR", "AFEIR", "ckpt"]


class RecordingBackend(SimulatedBackend):
    """The list executor, keeping every graph it is asked to execute."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.executed = []

    def execute(self, graph):
        self.executed.append(graph)
        return super().execute(graph)


@pytest.fixture(scope="module")
def blocked():
    return PageBlockedMatrix(poisson_2d_5pt(12), page_size=PAGE)


def make_planner(blocked, method, **axes):
    config = SolverConfig(page_size=PAGE, num_workers=WORKERS, pace=0.0,
                          **axes)
    spec = resolve_runtime_spec(config.scheduler, config.placement,
                                config.clock, config.ranks)
    strategy = (make_strategy(method, checkpoint_interval=5)
                if method else None)
    return CGPlanner(blocked, config, strategy=strategy, preconditioned=False,
                     spec=spec,
                     executor=RecordingBackend(WORKERS, config.cost_model),
                     engine=make_kernel_engine(blocked, spec))


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
                   preconditioner=None)


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


class TestReenactment:
    def reenacted(self, blocked, method, **axes):
        planner = make_planner(blocked, method, **axes)
        try:
            planner.reenact(7, False, make_state(blocked), "d0")
        finally:
            planner.engine.close()
        (graph,) = planner.executor.executed
        return planner, graph

    @pytest.mark.parametrize("method", METHODS)
    def test_local_placement_projects_the_plan_unchanged(self, blocked,
                                                         method):
        planner, graph = self.reenacted(blocked, method, clock="wall")
        plan = planner.plan(planner.uses_recovery_tasks, False)
        assert [t.name for t in graph.tasks] == \
            [name.format(t=7) for name in plan.names]
        assert "halo7" not in graph
        assert all(t.action is not None for t in graph.tasks
                   if t.kind is not TaskKind.REDUCTION or ":" in t.name)
        verify_graph(graph)
        assert planner.monitor.summary()["runs"] == 1
        assert planner.wall_trace is not None

    @pytest.mark.ranks
    @pytest.mark.parametrize("method", ["FEIR", "AFEIR"])
    def test_ranks_placement_splices_the_halo_exchange(self, blocked, method):
        planner, graph = self.reenacted(blocked, method, clock="wall",
                                        ranks=2)
        chunks = range(len(planner.chunk_bounds))
        d_parts = [f"d7:{c}" for c in chunks]
        halo = graph.task("halo7")
        assert halo.kind is TaskKind.COMMUNICATION and halo.duration == 0.0
        assert list(halo.deps) == d_parts
        for c in chunks:
            assert "halo7" in graph.task(f"q7:{c}").deps
        if method == "AFEIR":
            # ready together with the halo exchange: recovery overlaps it
            assert list(graph.task("r1_7").deps) == d_parts
        else:
            assert list(graph.task("r1_7").deps) == [f"dq7:{c}"
                                                     for c in chunks]
        assert find_races(graph) == []
        # the plan the timing passes use never sees the halo task
        assert "halo{t}" not in planner.plan(True, False).names

    def test_simulated_clock_discards_the_wall_side(self, blocked):
        planner = make_planner(blocked, "AFEIR", scheduler="threaded")
        planner.executor.close()          # RecordingBackend stands in
        planner.reenact(1, False, make_state(blocked), "d0")
        assert planner.monitor.summary()["runs"] == 1
        assert planner.wall_clock == 0.0 and planner.wall_trace is None
