"""The solver times iterations by re-timing compiled plans — exactly.

``fixtures/solve_oracle.json`` holds whole faulted solves as the parent
commit produced them, when every faulted iteration rebuilt and
list-scheduled a fresh task graph (see ``fixtures/generate_solve_oracle.py``).
The plan-timed solver must reproduce the iterate, the iteration count,
the simulated solve time and every state-breakdown field bit for bit,
while building a graph only once per iteration shape.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.runtime.graph import TaskGraph

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
