"""The solver times iterations by re-timing compiled plans — exactly.

``fixtures/solve_oracle.json`` holds whole faulted solves as the parent
commit produced them, when every faulted iteration rebuilt and
list-scheduled a fresh task graph (see ``fixtures/generate_solve_oracle.py``).
The plan-timed solver must reproduce the iterate, the iteration count,
the simulated solve time and every state-breakdown field bit for bit,
while building a graph only once per iteration shape — in the cells that
execute every iteration for real as in the list cell.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.core.manager import make_strategy
from repro.faults.scenarios import ErrorScenario
from repro.runtime.graph import TaskGraph
from repro.solvers.resilient_cg import ResilientCG, SolverConfig

FIXTURES = Path(__file__).parent / "fixtures"
ORACLE = json.loads((FIXTURES / "solve_oracle.json").read_text())


def load_generator():
    """The generator's own ``solve``/``observed``/``numerics_stack``: the
    test measures exactly what the fixture recorded."""
    spec = importlib.util.spec_from_file_location(
        "generate_solve_oracle", FIXTURES / "generate_solve_oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generator = load_generator()


@pytest.fixture
def graphs_built(monkeypatch):
    """Counts ``TaskGraph`` constructions while the test runs."""
    built = []
    original = TaskGraph.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(TaskGraph, "__init__", counting)
    return built


@pytest.fixture
def tasks_added(monkeypatch):
    """Counts ``TaskGraph.add_task`` calls while the test runs."""
    added = []
    original = TaskGraph.add_task

    def counting(self, name, *args, **kwargs):
        added.append(name)
        return original(self, name, *args, **kwargs)

    monkeypatch.setattr(TaskGraph, "add_task", counting)
    return added


@pytest.mark.parametrize(
    "case", ORACLE["cases"],
    ids=[f"{c['method']}-rate{c['rate']:g}{'-pcg' if c['preconditioned'] else ''}"
         for c in ORACLE["cases"]])
def test_solve_matches_the_parent_commit(case, graphs_built):
    if generator.numerics_stack() != ORACLE["stack"]:
        pytest.skip(f"iterates were recorded on {ORACLE['stack']}")
    result = generator.solve(case["method"], case["rate"], case["seed"],
                             case["preconditioned"],
                             ideal_time=float.fromhex(case["ideal_time"]))
    observed = generator.observed(result)
    assert observed == {key: case[key] for key in observed}
    assert case["faults_detected"] > 0
    # ideal + resilient/plain + checkpoint shapes at most, however many
    # of the iterations saw a fault
    assert 1 <= len(graphs_built) <= 4


def test_graph_count_does_not_grow_with_faults(graphs_built):
    """Stack-independent: 5 or 95 detected faults, the same graphs."""
    ideal = generator.solve(None).solve_time
    counts = []
    for rate in (5.0, 50.0):
        del graphs_built[:]
        result = generator.solve("AFEIR", rate, seed=3, ideal_time=ideal)
        assert result.record.faults_detected > 0
        counts.append((result.record.faults_detected, len(graphs_built)))
    (few, graphs_few), (many, graphs_many) = counts
    assert many > 3 * few
    assert graphs_few == graphs_many <= 4


def test_event_loop_runs_do_not_grow_with_faults():
    """Stack-independent: 5 or 95 detected faults, the event loop runs
    once per shape; every other timing replays that schedule's structure."""
    A, b = generator.problem()
    ideal = generator.solve(None).solve_time
    counts = []
    for rate in (5.0, 50.0):
        scenario = ErrorScenario(name=f"rate{rate:g}", normalized_rate=rate,
                                 seed=3)
        config = SolverConfig(num_workers=4, page_size=32, tolerance=1e-10)
        with ResilientCG(A, b, strategy=make_strategy("AFEIR"),
                         scenario=scenario, config=config) as solver:
            record = solver.solve(ideal_time=ideal).record
            scheduler = solver.planner.executor.scheduler
            counts.append((record.faults_detected, scheduler.loop_runs,
                           scheduler.replays))
    (few, loops_few, replays_few), (many, loops_many, replays_many) = counts
    assert many > 3 * few
    assert 1 <= loops_few == loops_many <= 4
    # pass 1 and pass 2 of every disturbed iteration
    assert replays_few >= few and replays_many > 3 * replays_few


#: The cells that execute every iteration for real (scheduler, placement,
#: clock, ranks), beside the list cell the tests above pin.
EXECUTING_CELLS = [("threaded", "local", "wall", 1),
                   ("list", "local", "wall", 1),
                   ("threaded", "ranks", "wall", 2)]


def solve_in_cell(cell, method, rate=0.0, ideal_time=None, tolerance=1e-10):
    scheduler, placement, clock, ranks = cell
    A, b = generator.problem()
    config = SolverConfig(num_workers=4, page_size=32, tolerance=tolerance,
                          pace=0.0, scheduler=scheduler, placement=placement,
                          clock=clock, ranks=ranks)
    scenario = (ErrorScenario(name=f"rate{rate:g}", normalized_rate=rate,
                              seed=3) if rate else None)
    with ResilientCG(A, b, strategy=make_strategy(method) if method else None,
                     scenario=scenario, config=config) as solver:
        return solver.solve(ideal_time=ideal_time)


@pytest.mark.ranks
@pytest.mark.parametrize("cell", EXECUTING_CELLS,
                         ids=lambda c: "-".join(map(str, c)))
class TestExecutingCellsBuildNoGraphPerIteration:
    """The bound PR 13 set for the list cell, for the cells that run the
    plan: a solve constructs at most one graph per shape — the timing
    shapes plus, under ranks, their halo run shapes — however many
    iterations it re-enacts and however many of them saw a fault."""

    def test_graph_count_does_not_grow_with_faults(self, cell, graphs_built,
                                                   tasks_added):
        ideal = generator.solve(None)
        counts = []
        for rate in (5.0, 50.0):
            del graphs_built[:], tasks_added[:]
            result = solve_in_cell(cell, "AFEIR", rate,
                                   ideal_time=ideal.solve_time)
            assert result.record.faults_detected > 0
            assert result.window_summary["runs"] == result.record.iterations
            counts.append((result.record.faults_detected,
                           len(graphs_built), len(tasks_added)))
        (few, graphs_few, tasks_few), (many, graphs_many, tasks_many) = counts
        assert many > 3 * few
        # ideal + resilient timing shapes, + the ranks run shape
        assert graphs_few == graphs_many == (3 if cell[1] == "ranks" else 2)
        assert tasks_few == tasks_many

    @pytest.mark.parametrize("method", [None, "FEIR", "AFEIR", "ckpt"])
    def test_tasks_added_do_not_grow_with_iterations(self, cell, method,
                                                     graphs_built,
                                                     tasks_added):
        counts = []
        for tolerance in (1e-2, 1e-10):
            del graphs_built[:], tasks_added[:]
            result = solve_in_cell(cell, method, tolerance=tolerance)
            counts.append((result.record.iterations, len(graphs_built),
                           len(tasks_added)))
        (short, graphs_short, tasks_short), (long, graphs_long,
                                             tasks_long) = counts
        assert long > 3 * short
        assert 1 <= graphs_short <= graphs_long <= 6
        # the checkpoint shapes appear only once a checkpoint is due
        if method != "ckpt":
            assert (graphs_short, tasks_short) == (graphs_long, tasks_long)
        assert tasks_long <= 6 * 60
