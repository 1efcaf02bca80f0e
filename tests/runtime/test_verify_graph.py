"""The structural happens-before verifier (`find_races`, `verify_graph`).

Unit races on hand-built graphs; every graph the CG planner can build,
checked race-free (each shape x strategy x preconditioner x chunk
count); the shapes each runtime cell's solve compiles; and the
regression the verifier exists for: dropping the halo-exchange
dependency edge must be reported as a race naming both tasks.
"""

from __future__ import annotations

import itertools
from contextlib import closing

import pytest

from repro.core.manager import STRATEGY_NAMES, make_strategy
from repro.faults.injector import Injection
from repro.faults.scenarios import multi_error_scenario
from repro.matrices.blocked import PageBlockedMatrix
from repro.matrices.laplacian import laplacian_2d
from repro.matrices.stencil import stencil_rhs
from repro.runtime.async_exec import ThreadedBackend
from repro.runtime.backend import SimulatedBackend
from repro.runtime.graph import (GraphRace, GraphRaceError, TaskGraph,
                                 find_races, verify_graph)
from repro.runtime.kernels import make_kernel_engine
from repro.runtime.plan import compile_plan
from repro.runtime.task import TaskKind
from repro.solvers.cg_plan import CGPlanner
from repro.solvers.resilient_cg import ResilientCG, SolverConfig


def two_writer_graph():
    g = TaskGraph()
    g.add_task("a", 1.0, writes={"seg:v[0]"})
    g.add_task("b", 1.0, writes={"seg:v[0]"})
    return g


#: Both backends; the threaded one on one simulated worker, so one
#: lane, and running the unordered pair is no race under REPRO_TSAN.
BACKENDS = {"simulated": lambda: SimulatedBackend(num_workers=2),
            "threaded": lambda: ThreadedBackend(num_workers=1, pace=0.0)}


class TestFindRaces:
    def test_unordered_write_write_is_a_race(self):
        races = find_races(two_writer_graph())
        assert len(races) == 1
        race = races[0]
        assert {race.task_a, race.task_b} == {"a", "b"}
        assert race.access == "write/write"
        assert race.resource == "seg:v[0]"

    def test_dependency_path_clears_the_race(self):
        g = two_writer_graph()
        g.task("b").deps.append("a")
        assert find_races(g) == []

    def test_transitive_path_counts(self):
        g = two_writer_graph()
        g.add_task("mid", 1.0, deps=["a"])
        g.task("b").deps.append("mid")
        assert find_races(g) == []

    def test_unordered_read_write_is_a_race(self):
        g = TaskGraph()
        g.add_task("w", 1.0, writes={"seg:v[0]"})
        g.add_task("r", 1.0, reads={"seg:v[0]"})
        races = find_races(g)
        assert len(races) == 1 and races[0].access == "read/write"

    def test_concurrent_reads_are_fine(self):
        g = TaskGraph()
        g.add_task("r1", 1.0, reads={"seg:v[0]"})
        g.add_task("r2", 1.0, reads={"seg:v[0]"})
        assert find_races(g) == []

    def test_tasks_without_resources_are_exempt(self):
        # AFEIR's read-only recovery probe deliberately overlaps the
        # reduction; declaring nothing opts a task out of the check.
        g = TaskGraph()
        g.add_task("dq", 1.0, reads={"seg:d[0]"}, writes={"part:dq[0]"})
        g.add_task("r1", 1.0, kind=TaskKind.RECOVERY)
        assert find_races(g) == []

    def test_different_resources_do_not_conflict(self):
        g = TaskGraph()
        g.add_task("w1", 1.0, writes={"seg:v[0]"})
        g.add_task("w2", 1.0, writes={"seg:v[1]"})
        assert find_races(g) == []

    def test_verify_graph_raises_with_both_names(self):
        with pytest.raises(GraphRaceError) as err:
            verify_graph(two_writer_graph())
        assert "'a'" in str(err.value) and "'b'" in str(err.value)
        assert err.value.races == [GraphRace("a", "b", "seg:v[0]", "write/write")]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_compile_leaves_the_race_check_to_the_tests(backend):
    """``compile_plan`` refuses dangling edges and cycles, not races:
    a racy plan compiles, and both backends run it."""
    plan = compile_plan(two_writer_graph())
    with BACKENDS[backend]() as runner:
        assert sorted(runner.simulate(plan).launch_order) == [0, 1]
        assert runner.execute(plan).plan is plan


# ----------------------------------------------------------------------
# every graph the planner can build
# ----------------------------------------------------------------------

#: Every ``(resilient, checkpoint, halo)`` a graph can be built for.
SHAPES = tuple(itertools.product((False, True), repeat=3))


def shape_planner(method, *, preconditioned, chunks, page=8):
    """A planner over a 36-unknown Laplacian strip-mined into ``chunks``
    chunks, under ``method`` (``None``: no strategy)."""
    blocked = PageBlockedMatrix(laplacian_2d(6), page_size=page)
    config = SolverConfig(page_size=page, num_workers=chunks)
    strategy = (make_strategy(method, checkpoint_interval=5)
                if method else None)
    return CGPlanner(blocked, config, strategy=strategy,
                     preconditioned=preconditioned,
                     executor=SimulatedBackend(chunks, config.cost_model),
                     engine=make_kernel_engine(blocked, config.runtime_spec()))


@pytest.mark.parametrize("chunks", [1, 2, 3, 8])
@pytest.mark.parametrize("preconditioned", [False, True],
                         ids=["cg", "pcg"])
@pytest.mark.parametrize("method", [None, *STRATEGY_NAMES], ids=str)
def test_every_planner_graph_is_race_free(method, preconditioned, chunks):
    """Each of the eight shapes, built by the planner, has no unordered
    conflicting pair — with the tasks each shape switch adds present."""
    with closing(shape_planner(method, preconditioned=preconditioned,
                               chunks=chunks)) as planner:
        assert len(planner.chunk_bounds) == chunks
        for resilient, checkpoint, halo in SHAPES:
            graph, _ = planner.build_iteration_graph(
                resilient=resilient, checkpoint=checkpoint, halo=halo)
            assert ("r1_{t}" in graph) is resilient
            assert ("halo{t}" in graph) is halo
            assert ("ckpt{t}" in graph) is (checkpoint and method == "ckpt")
            assert ("z{t}:0" in graph) is preconditioned
            races = find_races(graph)
            assert races == [], (
                f"shape (resilient={resilient}, checkpoint={checkpoint}, "
                f"halo={halo}): " + "; ".join(map(str, races)))


def test_dropped_halo_edge_is_reported():
    """The regression the verifier exists for: lose the halo -> spmv
    dependency in a refactor and the planner-built run shape races,
    the race naming the halo task and an spmv chunk."""
    with closing(shape_planner("AFEIR", preconditioned=False,
                               chunks=4)) as planner:
        graph, _ = planner.build_iteration_graph(
            resilient=True, checkpoint=False, halo=True)
    for task in graph.tasks:
        if task.name.startswith("q{t}:"):
            task.deps.remove("halo{t}")
    races = find_races(graph)
    assert races and all(race.resource == "halo:d" for race in races)
    names = {race.task_a for race in races} | {race.task_b for race in races}
    assert "halo{t}" in names
    assert any(name.startswith("q{t}:") for name in names)


# ----------------------------------------------------------------------
# the shapes a solve compiles, in every runtime cell
# ----------------------------------------------------------------------

PAGE = 16
CELLS = [
    ("list", "local", "simulated", 1),
    ("threaded", "local", "wall", 1),
    ("list", "ranks", "simulated", 2),
    ("list", "ranks", "wall", 2),
    ("threaded", "ranks", "wall", 2),
]


def make_solver(method="afeir", **overrides):
    A = laplacian_2d(10)
    b = stencil_rhs(A, kind="random", seed=11)
    strategy = make_strategy(method) if method else None
    scenario = None
    if method:
        scenario = multi_error_scenario(
            [Injection(time=0.0002, vector="x", page=2)],
            name="verify-graph")
    config = SolverConfig(page_size=PAGE, tolerance=1e-8, num_workers=4,
                          pace=0.0, **overrides)
    return ResilientCG(A, b, strategy=strategy, scenario=scenario,
                       config=config)


@pytest.mark.ranks
@pytest.mark.parametrize("cell", CELLS, ids=lambda c: "-".join(map(str, c)))
@pytest.mark.parametrize("method", [None, "feir", "afeir", "ckpt"])
def test_every_shape_a_cell_compiles_verifies_clean(monkeypatch, cell,
                                                    method):
    """Every iteration graph a solve builds in ``cell`` passes
    verify_graph; the ranks cells that re-enact build the halo run
    shape among them."""
    built = []
    original = CGPlanner.build_iteration_graph

    def record(self, **shape):
        graph, roles = original(self, **shape)
        built.append((shape, graph))
        return graph, roles

    monkeypatch.setattr(CGPlanner, "build_iteration_graph", record)
    scheduler, placement, clock, ranks = cell
    with make_solver(method, scheduler=scheduler, placement=placement,
                     clock=clock, ranks=ranks) as solver:
        result = solver.solve(ideal_time=0.001 if method else None)
    assert result.record.converged
    assert built
    for _, graph in built:
        verify_graph(graph)
    halo = placement == "ranks" and clock == "wall"
    assert any(shape["halo"] for shape, _ in built) is halo
