"""Tests for execution traces and the per-state accounting of Table 3."""

import pytest

from repro.runtime.task import ScheduledTask, TaskKind
from repro.runtime.trace import ExecutionTrace, StateBreakdown


def make_trace(tasks, workers=2, end=None):
    last = max((t.end for t in tasks), default=0.0)
    return ExecutionTrace.from_schedule(tasks, num_workers=workers,
                                        start=0.0, end=end if end else last)


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
        tasks = [ScheduledTask("a", 0, 0.0, 1.1, TaskKind.COMPUTE, overhead=0.1)]
        trace = make_trace(tasks, workers=1)
        assert trace.breakdown.runtime == pytest.approx(0.1)
        assert trace.breakdown.useful == pytest.approx(1.0)

    def test_idle_fills_unused_worker_time(self):
        tasks = [ScheduledTask("a", 0, 0.0, 1.0, TaskKind.COMPUTE)]
        trace = make_trace(tasks, workers=2)
        assert trace.breakdown.idle == pytest.approx(1.0)

    def test_kind_routing(self):
        tasks = [
            ScheduledTask("r", 0, 0.0, 1.0, TaskKind.RECOVERY),
            ScheduledTask("c", 1, 0.0, 1.0, TaskKind.CHECKPOINT),
            ScheduledTask("m", 0, 1.0, 2.0, TaskKind.COMMUNICATION),
            ScheduledTask("s", 1, 1.0, 2.0, TaskKind.REDUCTION),
        ]
        trace = make_trace(tasks, workers=2)
        b = trace.breakdown
        assert b.recovery == pytest.approx(1.0)
        assert b.checkpoint == pytest.approx(1.0)
        assert b.communication == pytest.approx(1.0)
        assert b.useful == pytest.approx(1.0)

    def test_accumulate_traces(self):
        t1 = make_trace([ScheduledTask("a", 0, 0.0, 1.0, TaskKind.COMPUTE)],
                        workers=1)
        t2 = make_trace([ScheduledTask("b", 0, 0.0, 2.0, TaskKind.COMPUTE)],
                        workers=1)
        t1.accumulate(t2)
        assert t1.breakdown.useful == pytest.approx(3.0)
        assert t1.wall_time == pytest.approx(3.0)
        assert t1.task_count == 2

    def test_accumulate_worker_mismatch(self):
        t1 = ExecutionTrace(num_workers=2)
        t2 = ExecutionTrace(num_workers=4)
        with pytest.raises(ValueError):
            t1.accumulate(t2)
