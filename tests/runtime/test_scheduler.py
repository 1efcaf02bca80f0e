"""Tests for the discrete-event list scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.backend import SimulatedBackend
from repro.runtime.cost_model import CostModel
from repro.runtime.graph import TaskGraph
from repro.runtime.plan import compile_plan
from repro.runtime.scheduler import ListScheduler
from repro.runtime.task import ScheduledTask, TaskKind

#: Cost model with no per-task overhead, for exact makespan arithmetic.
NO_OVERHEAD = CostModel(task_overhead=0.0)


def scheduled(result):
    """Per-task placements by name, in launch order (``seq`` is the
    launch sequence number)."""
    names, kinds = result.plan.names, result.plan.kinds
    return {names[i]: ScheduledTask(
                name=names[i], worker=result.workers[i],
                start=result.starts[i], end=result.ends[i], kind=kinds[i],
                overhead=result.overhead, seq=seq)
            for seq, i in enumerate(result.launch_order)}


def scheduler(workers, overhead=False):
    return ListScheduler(workers, cost_model=CostModel() if overhead
                         else NO_OVERHEAD)


class TestBasicScheduling:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ListScheduler(0)

    def test_empty_graph(self):
        result = scheduler(4).run(compile_plan(TaskGraph()))
        assert result.makespan == 0.0

    def test_single_task(self):
        graph = TaskGraph()
        graph.add_task("a", 2.0)
        result = scheduler(1).run(compile_plan(graph))
        assert result.makespan == pytest.approx(2.0)

    def test_chain_is_sequential(self):
        graph = TaskGraph()
        graph.add_task("a", 1.0)
        graph.add_task("b", 2.0, deps=["a"])
        graph.add_task("c", 3.0, deps=["b"])
        result = scheduler(8).run(compile_plan(graph))
        assert result.makespan == pytest.approx(6.0)

    def test_independent_tasks_run_in_parallel(self):
        graph = TaskGraph()
        for i in range(4):
            graph.add_task(f"t{i}", 1.0)
        result = scheduler(4).run(compile_plan(graph))
        assert result.makespan == pytest.approx(1.0)

    def test_more_tasks_than_workers(self):
        graph = TaskGraph()
        for i in range(4):
            graph.add_task(f"t{i}", 1.0)
        result = scheduler(2).run(compile_plan(graph))
        assert result.makespan == pytest.approx(2.0)

    def test_dependencies_are_respected(self):
        graph = TaskGraph()
        graph.add_task("a", 1.0)
        graph.add_task("b", 1.0, deps=["a"])
        plan = compile_plan(graph)
        result = scheduler(2).run(plan)
        assert result.starts[plan.index("b")] >= result.ends[plan.index("a")] - 1e-12

    def test_start_time_offset(self):
        graph = TaskGraph()
        graph.add_task("a", 1.0)
        result = scheduler(1).run(compile_plan(graph), start_time=10.0)
        assert result.starts[result.plan.index("a")] == pytest.approx(10.0)
        assert result.makespan == pytest.approx(1.0)

    def test_priorities_order_ready_tasks(self):
        graph = TaskGraph()
        graph.add_task("low", 1.0, priority=-1)
        graph.add_task("high", 1.0, priority=5)
        plan = compile_plan(graph)
        result = scheduler(1).run(plan)
        assert result.starts[plan.index("high")] < result.starts[plan.index("low")]

    def test_actions_execute_in_start_order(self):
        order = []
        graph = TaskGraph()
        graph.add_task("a", 1.0)
        graph.add_task("b", 1.0, deps=["a"])
        SimulatedBackend(2, cost_model=NO_OVERHEAD).execute(
            compile_plan(graph), [lambda: order.append("a"),
                                  lambda: order.append("b")])
        assert order == ["a", "b"]

    def test_trace_and_replay_agree_on_equal_start_ties(self):
        """Regression: two equal-priority tasks starting at the same time.

        The backend's action replay runs in launch order (insertion order
        for ties) while the trace used to sort ties by task *name*
        — so a graph whose insertion order differs from its name order made
        the trace and the numerical replay disagree.  They must be identical.
        """
        order = []
        graph = TaskGraph()
        # Insertion order ("b" first) deliberately differs from name order.
        graph.add_task("b", 1.0)
        graph.add_task("a", 1.0)
        plan = compile_plan(graph)
        result = scheduler(2).run(plan)
        SimulatedBackend(2, cost_model=NO_OVERHEAD).execute(
            plan, [lambda: order.append("b"), lambda: order.append("a")])
        assert result.starts[plan.index("a")] == result.starts[plan.index("b")]
        assert order == ["b", "a"]
        assert [plan.names[i] for i in result.launch_order] == order

    def test_scheduled_seq_is_the_launch_order(self):
        """Sorting the materialised placements by (start, seq) gives the
        launch order — sequence numbers, not names, break start ties."""
        graph = TaskGraph()
        graph.add_task("b", 1.0)
        graph.add_task("a", 1.0)
        plan = compile_plan(graph)
        result = scheduler(2).run(plan)
        by_seq = sorted(scheduled(result).values(), key=lambda s: (s.start, s.seq))
        assert [s.name for s in by_seq] \
            == [plan.names[i] for i in result.launch_order] == ["b", "a"]

    def test_overhead_charged_per_task(self):
        cm = CostModel(task_overhead=0.5)
        graph = TaskGraph()
        graph.add_task("a", 1.0)
        graph.add_task("b", 1.0, deps=["a"])
        result = ListScheduler(1, cost_model=cm).run(compile_plan(graph))
        assert result.makespan == pytest.approx(3.0)

    def test_trace_accounts_for_idle_time(self):
        graph = TaskGraph()
        graph.add_task("long", 4.0)
        graph.add_task("short", 1.0)
        result = scheduler(2).run(compile_plan(graph))
        breakdown = result.trace.breakdown
        assert breakdown.idle == pytest.approx(3.0)
        assert breakdown.useful == pytest.approx(5.0)

    def test_recovery_tasks_tracked_separately(self):
        graph = TaskGraph()
        graph.add_task("r", 2.0, kind=TaskKind.RECOVERY)
        result = scheduler(1).run(compile_plan(graph))
        assert result.trace.breakdown.recovery == pytest.approx(2.0)
        assert result.trace.breakdown.useful == pytest.approx(0.0)


class TestSchedulerInvariants:
    @given(durations=st.lists(st.floats(0.01, 5.0), min_size=1, max_size=20),
           workers=st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_makespan_bounds(self, durations, workers):
        """Greedy list schedules respect the classic lower/upper bounds."""
        graph = TaskGraph()
        for i, dur in enumerate(durations):
            graph.add_task(f"t{i}", dur)
        result = scheduler(workers).run(compile_plan(graph))
        total = sum(durations)
        lower = max(total / workers, max(durations))
        assert result.makespan >= lower - 1e-9
        assert result.makespan <= total + 1e-9
        # No worker executes two tasks at once.
        by_worker = {}
        for st_task in scheduled(result).values():
            by_worker.setdefault(st_task.worker, []).append(st_task)
        for tasks in by_worker.values():
            tasks.sort(key=lambda s: s.start)
            for first, second in zip(tasks, tasks[1:], strict=False):
                assert second.start >= first.end - 1e-9

    @given(workers=st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_work_conservation(self, workers):
        """Busy time in the trace equals the sum of task durations."""
        graph = TaskGraph()
        durations = [0.5, 1.5, 2.0, 0.25, 1.0]
        for i, dur in enumerate(durations):
            graph.add_task(f"t{i}", dur)
        result = scheduler(workers).run(compile_plan(graph))
        breakdown = result.trace.breakdown
        busy = breakdown.useful + breakdown.recovery + breakdown.checkpoint \
            + breakdown.communication + breakdown.runtime
        assert busy == pytest.approx(sum(durations))
