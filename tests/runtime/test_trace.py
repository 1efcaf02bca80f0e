"""Tests for execution traces and the per-state accounting of Table 3."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.backend import ExecutionResult
from repro.runtime.graph import TaskGraph
from repro.runtime.plan import compile_plan
from repro.runtime.task import ScheduledTask, TaskKind
from repro.runtime.trace import WORK_STATES, ExecutionTrace, StateBreakdown

#: The state each kind's work is charged to, spelled out independently
#: of the runtime's table.
STATE_OF = {TaskKind.COMPUTE: "useful", TaskKind.REDUCTION: "useful",
            TaskKind.RECOVERY: "recovery", TaskKind.CHECKPOINT: "checkpoint",
            TaskKind.COMMUNICATION: "communication"}


def plan_of(kinds):
    graph = TaskGraph()
    for i, kind in enumerate(kinds):
        graph.add_task(f"t{i}", 1.0, kind=kind)
    return compile_plan(graph)


def trace_of(work, *, runtime=0.0, workers=2, end=None):
    """A trace of one task per ``(state, occupied)`` pair of ``work``."""
    sums = [0.0] * len(WORK_STATES)
    for state, occupied in work:
        sums[WORK_STATES.index(state)] += occupied - runtime
    busy = sum(occupied for _, occupied in work)
    return ExecutionTrace.from_sums(sums, runtime * len(work), busy,
                                    len(work), num_workers=workers,
                                    start=0.0, end=end if end else busy)


class TestStateBreakdown:
    def test_fractions_sum_to_one(self):
        b = StateBreakdown(useful=3.0, runtime=1.0, idle=2.0)
        fractions = b.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_fractions_of_empty_breakdown(self):
        assert all(v == 0.0 for v in StateBreakdown().fractions().values())

    def test_add_accumulates(self):
        a = StateBreakdown(useful=1.0)
        a.add(StateBreakdown(useful=2.0, idle=1.0))
        assert a.useful == 3.0 and a.idle == 1.0


class TestExecutionTrace:
    def test_accounts_overhead_as_runtime(self):
        trace = trace_of([("useful", 1.1)], runtime=0.1, workers=1)
        assert trace.breakdown.runtime == pytest.approx(0.1)
        assert trace.breakdown.useful == pytest.approx(1.0)

    def test_schedule_accounts_overhead_as_runtime(self):
        tasks = [ScheduledTask("a", 0, 0.0, 1.1, TaskKind.COMPUTE, overhead=0.1)]
        trace = ExecutionTrace.from_schedule(tasks, num_workers=1,
                                             start=0.0, end=1.1)
        assert trace.breakdown == trace_of([("useful", 1.1)], runtime=0.1,
                                           workers=1).breakdown

    def test_idle_fills_unused_worker_time(self):
        trace = trace_of([("useful", 1.0)], workers=2)
        assert trace.breakdown.idle == pytest.approx(1.0)

    def test_kind_routing(self):
        kinds = [TaskKind.RECOVERY, TaskKind.CHECKPOINT,
                 TaskKind.COMMUNICATION, TaskKind.REDUCTION,
                 TaskKind.COMPUTE]
        plan = plan_of(kinds)
        assert [WORK_STATES[s] for s in plan.work_states] == \
            [STATE_OF[kind] for kind in kinds]
        result = ExecutionResult(plan, starts=[0.0, 0.0, 1.0, 1.0, 2.0],
                                 ends=[1.0, 1.0, 2.0, 2.0, 3.0],
                                 workers=[0, 1, 0, 1, 0], wall_time=3.0)
        b = result.measured_breakdown(2)
        assert b.recovery == pytest.approx(1.0)
        assert b.checkpoint == pytest.approx(1.0)
        assert b.communication == pytest.approx(1.0)
        assert b.useful == pytest.approx(2.0)
        assert b.runtime == 0.0 and b.idle == pytest.approx(1.0)
        scheduled = [ScheduledTask(f"t{i}", w, s, e, kind)
                     for i, (w, s, e, kind) in enumerate(zip(
                         result.workers, result.starts, result.ends, kinds))]
        assert ExecutionTrace.from_schedule(
            scheduled, num_workers=2, start=0.0, end=3.0).breakdown == b

    def test_accumulate_traces(self):
        t1 = trace_of([("useful", 1.0)], workers=1)
        t2 = trace_of([("useful", 2.0)], workers=1)
        t1.accumulate(t2)
        assert t1.breakdown.useful == pytest.approx(3.0)
        assert t1.wall_time == pytest.approx(3.0)
        assert t1.task_count == 2

    def test_accumulate_worker_mismatch(self):
        t1 = ExecutionTrace(num_workers=2)
        t2 = ExecutionTrace(num_workers=4)
        with pytest.raises(ValueError):
            t1.accumulate(t2)


@st.composite
def measured(draw):
    """A plan of random kinds and a random measured execution of it."""
    kinds = draw(st.lists(st.sampled_from(list(TaskKind)), min_size=1,
                          max_size=24))
    starts, ends = [], []
    for _ in kinds:
        start = draw(st.floats(0.0, 1.0))
        starts.append(start)
        ends.append(start + draw(st.floats(0.0, 0.5)))
    workers = draw(st.lists(st.integers(0, 3), min_size=len(kinds),
                            max_size=len(kinds)))
    return ExecutionResult(plan_of(kinds), starts, ends, workers,
                           wall_time=max(ends) - min(starts))


def ran_together(result, a, b):
    return (result.starts[a] < result.ends[b]
            and result.starts[b] < result.ends[a])


class TestMeasuredSide:
    """The plan-indexed measured queries equal their definitions."""

    @given(result=measured(), workers=st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_breakdown_is_the_per_kind_sum(self, result, workers):
        by_state = dict.fromkeys(WORK_STATES, 0.0)
        busy = 0.0
        for start, end, kind in zip(result.starts, result.ends,
                                    result.plan.kinds):
            by_state[STATE_OF[kind]] += end - start
            busy += end - start
        b = result.measured_breakdown(workers)
        assert [getattr(b, state) for state in WORK_STATES] == \
            [by_state[state] for state in WORK_STATES]
        assert b.runtime == 0.0
        assert b.idle == max(workers * result.wall_time - busy, 0.0)

    @given(result=measured())
    @settings(max_examples=200, deadline=None)
    def test_overlaps_are_the_pairwise_definition(self, result):
        kinds, workers = result.plan.kinds, result.workers
        tasks = range(len(kinds))
        recovery = [r for r in tasks if kinds[r] is TaskKind.RECOVERY]
        assert result.recovery_overlaps() == sum(
            any(kinds[o] is not TaskKind.RECOVERY
                and workers[o] != workers[r] and ran_together(result, r, o)
                for o in tasks)
            for r in recovery)
        assert result.recovery_halo_overlaps() == sum(
            any(kinds[c] is TaskKind.COMMUNICATION
                and ran_together(result, r, c) for c in tasks)
            for r in recovery)
