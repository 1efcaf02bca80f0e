"""Tests for task graphs."""

import pytest

from repro.runtime.graph import TaskGraph
from repro.runtime.plan import compile_plan
from repro.runtime.task import Task, TaskKind


class TestTaskGraph:
    def test_add_and_lookup(self):
        graph = TaskGraph()
        graph.add_task("a", 1.0)
        assert "a" in graph
        assert graph.task("a").duration == 1.0

    def test_duplicate_name(self):
        graph = TaskGraph()
        graph.add_task("a", 1.0)
        with pytest.raises(ValueError):
            graph.add_task("a", 2.0)

    def test_unknown_task(self):
        with pytest.raises(KeyError):
            TaskGraph().task("missing")

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Task(name="bad", duration=-1.0)

    def test_validate_unknown_dependency(self):
        graph = TaskGraph()
        graph.add_task("a", 1.0, deps=["ghost"])
        with pytest.raises(ValueError):
            graph.validate()

    def test_cycle_detection(self):
        graph = TaskGraph()
        graph.add_task("a", 1.0, deps=["b"])
        graph.add_task("b", 1.0, deps=["a"])
        with pytest.raises(ValueError):
            graph.topological_order()

    def test_topological_order_respects_deps(self):
        graph = TaskGraph()
        graph.add_task("a", 1.0)
        graph.add_task("b", 1.0, deps=["a"])
        graph.add_task("c", 1.0, deps=["a", "b"])
        order = graph.topological_order()
        assert order.index("a") < order.index("b") < order.index("c")

    def test_task_kinds_default(self):
        graph = TaskGraph()
        t = graph.add_task("a", 1.0)
        assert t.kind is TaskKind.COMPUTE

    def test_tasks_in_insertion_order(self):
        graph = TaskGraph()
        for name in ("z", "a", "m"):
            graph.add_task(name, 1.0)
        assert [t.name for t in graph.tasks] == ["z", "a", "m"]

    def test_topological_order_breaks_ties_by_name(self):
        graph = TaskGraph()
        for name in ("c", "a", "b"):
            graph.add_task(name, 1.0)
        graph.add_task("join", 1.0, deps=["c", "a", "b"])
        assert graph.topological_order() == ["a", "b", "c", "join"]

    def test_add_task_records_resources(self):
        t = TaskGraph().add_task("w", 1.0, reads=["g", "g"], writes=["x"])
        assert t.reads == frozenset({"g"})
        assert t.writes == frozenset({"x"})

    def test_a_compiled_plan_keeps_reads_and_writes_in_plan_order(self):
        graph = TaskGraph()
        graph.add_task("w", 1.0, reads=["g"], writes=["x"])
        graph.add_task("bare", 1.0, deps=["w"])
        assert compile_plan(graph).resources == (
            (frozenset({"g"}), frozenset({"x"})),
            (frozenset(), frozenset()))
