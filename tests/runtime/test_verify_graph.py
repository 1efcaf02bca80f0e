"""The structural happens-before verifier (`verify_graph`).

Unit races on hand-built graphs, the REPRO_VERIFY_GRAPHS backend wiring,
a sweep over real solver iteration graphs for every runtime cell, and
the regression the verifier exists for: deliberately dropping the
halo-exchange dependency edge must raise a race naming both tasks.
"""

from __future__ import annotations

import pytest

from repro.core.manager import make_strategy
from repro.faults.injector import Injection
from repro.faults.scenarios import multi_error_scenario
from repro.matrices.stencil import poisson_2d_5pt, stencil_rhs
from repro.runtime.backend import SimulatedBackend
from repro.runtime.async_exec import ThreadedBackend
from repro.runtime.graph import (GraphRace, GraphRaceError, TaskGraph,
                                 VERIFY_GRAPHS_ENV, find_races,
                                 verification_enabled, verify_graph)
from repro.runtime.task import TaskKind
from repro.solvers.cg_plan import CGPlanner
from repro.solvers.resilient_cg import ResilientCG, SolverConfig


def two_writer_graph():
    g = TaskGraph()
    g.add_task("a", 1.0, writes={"seg:v[0]"})
    g.add_task("b", 1.0, writes={"seg:v[0]"})
    return g


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
        g.task("b").depends_on("a")
        assert find_races(g) == []

    def test_transitive_path_counts(self):
        g = two_writer_graph()
        g.add_task("mid", 1.0, deps=["a"])
        g.task("b").depends_on("mid")
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

    def test_declared_page_is_an_implicit_write(self):
        g = TaskGraph()
        g.add_task("p1", 1.0, page=3)
        g.add_task("p2", 1.0, page=3)
        races = find_races(g)
        assert len(races) == 1 and races[0].resource == "page:3"
        g.task("p2").depends_on("p1")
        assert find_races(g) == []

    def test_different_pages_do_not_conflict(self):
        g = TaskGraph()
        g.add_task("p1", 1.0, page=3)
        g.add_task("p2", 1.0, page=4)
        assert find_races(g) == []

    def test_verify_graph_raises_with_both_names(self):
        with pytest.raises(GraphRaceError) as err:
            verify_graph(two_writer_graph())
        assert "'a'" in str(err.value) and "'b'" in str(err.value)
        assert err.value.races == [GraphRace("a", "b", "seg:v[0]", "write/write")]


class TestEnvWiring:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(VERIFY_GRAPHS_ENV, raising=False)
        assert not verification_enabled()
        backend = SimulatedBackend(num_workers=2)
        backend.simulate(two_writer_graph())  # no raise
        backend.execute(two_writer_graph())   # no raise

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("0", False), ("", False), ("no", False)])
    def test_env_values(self, monkeypatch, value, expected):
        monkeypatch.setenv(VERIFY_GRAPHS_ENV, value)
        assert verification_enabled() is expected

    def test_simulated_backend_raises_when_enabled(self, monkeypatch):
        monkeypatch.setenv(VERIFY_GRAPHS_ENV, "1")
        with pytest.raises(GraphRaceError):
            SimulatedBackend(num_workers=2).simulate(two_writer_graph())
        with pytest.raises(GraphRaceError):
            SimulatedBackend(num_workers=2).execute(two_writer_graph())

    def test_threaded_backend_raises_when_enabled(self, monkeypatch):
        monkeypatch.setenv(VERIFY_GRAPHS_ENV, "1")
        with ThreadedBackend(num_workers=2) as backend:
            with pytest.raises(GraphRaceError):
                backend.execute(two_writer_graph())


# ----------------------------------------------------------------------
# real solver graphs
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
    A = poisson_2d_5pt(10)
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
class TestSolverGraphs:
    @pytest.mark.parametrize("cell", CELLS, ids=lambda c: "-".join(map(str, c)))
    @pytest.mark.parametrize("method", [None, "feir", "afeir", "checkpoint"])
    def test_every_cell_verifies_clean(self, monkeypatch, cell, method):
        """Every iteration graph the solver executes passes verify_graph."""
        monkeypatch.setenv(VERIFY_GRAPHS_ENV, "1")
        scheduler, placement, clock, ranks = cell
        with make_solver(method, scheduler=scheduler, placement=placement,
                         clock=clock, ranks=ranks) as solver:
            result = solver.solve(ideal_time=0.001 if method else None)
        assert result.record.converged

    @pytest.mark.parametrize("scheduler", ["list", "threaded"])
    def test_dropped_halo_edge_is_reported(self, monkeypatch, scheduler):
        """The regression verify_graph exists for: lose the halo->spmv
        dependency in a refactor and the race is caught structurally,
        naming both the halo task and the spmv chunk — when the ranks run
        shape is compiled, before anything executes."""
        monkeypatch.setenv(VERIFY_GRAPHS_ENV, "1")
        original = CGPlanner.build_iteration_graph

        def drop_edge(self, **shape):
            graph, roles = original(self, **shape)
            if shape.get("halo"):
                for task in graph.tasks:
                    if task.name.startswith("q{t}:"):
                        task.deps.remove("halo{t}")
            return graph, roles

        monkeypatch.setattr(CGPlanner, "build_iteration_graph", drop_edge)
        # The halo task only exists in the run shape, which only a cell
        # that re-enacts (clock="wall") under the ranks placement compiles.
        with make_solver("afeir", scheduler=scheduler, placement="ranks",
                         clock="wall", ranks=2) as solver:
            executed = []
            monkeypatch.setattr(solver.planner.executor, "execute",
                                lambda *args: executed.append(args))
            with pytest.raises(GraphRaceError) as err:
                solver.solve(ideal_time=0.001)
            assert not executed
            solver.planner.plan(True, False)      # the timing shape is clean
        race = err.value.races[0]
        assert race.resource == "halo:d"
        names = {race.task_a, race.task_b}
        assert any(n.startswith("halo") for n in names)
        assert any(":" in n and n.startswith("q") for n in names)
