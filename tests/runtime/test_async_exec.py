"""Tests for the execution backends: protocol, threaded runtime, monitor."""

import threading
import time

import pytest

from repro.runtime.async_exec import (PageLockTable, ThreadedBackend,
                                      VulnerableWindowMonitor)
from repro.runtime.backend import (ExecutionResult, SimulatedBackend,
                                   WallInterval)
from repro.runtime.cost_model import CostModel
from repro.runtime.graph import TaskGraph
from repro.runtime.runtime import RuntimeSpec, make_executor
from repro.runtime.task import TaskKind

NO_OVERHEAD = CostModel(task_overhead=0.0)


@pytest.fixture
def threaded():
    backend = ThreadedBackend(4, cost_model=NO_OVERHEAD, pace=0.0)
    yield backend
    backend.close()


def diamond_graph(log, lock):
    """a -> (b, c) -> d, each action recording its name thread-safely."""
    graph = TaskGraph()

    def record(name):
        def action():
            with lock:
                log.append(name)
            return name
        return action

    graph.add_task("a", 0.0, action=record("a"))
    graph.add_task("b", 0.0, deps=["a"], action=record("b"))
    graph.add_task("c", 0.0, deps=["a"], action=record("c"))
    graph.add_task("d", 0.0, deps=["b", "c"], action=record("d"))
    return graph


class TestFactoryAndProtocol:
    def test_scheduler_axis_picks_the_executor(self):
        assert isinstance(make_executor(RuntimeSpec(), 2), SimulatedBackend)
        backend = make_executor(RuntimeSpec(scheduler="threaded"), 2,
                                max_threads=1, pace=0.0)
        assert isinstance(backend, ThreadedBackend)
        assert (backend.thread_count, backend.pace) == (1, 0.0)
        backend.close()

    def test_simulated_backend_replays_actions_in_launch_order(self):
        log, lock = [], threading.Lock()
        result = SimulatedBackend(2, cost_model=NO_OVERHEAD).run(
            diamond_graph(log, lock))
        assert log[0] == "a" and log[-1] == "d"
        assert sorted(log) == ["a", "b", "c", "d"]
        assert not result.executed_real
        assert result.values["b"] == "b"

    def test_simulated_and_threaded_schedules_match(self, threaded):
        graph = TaskGraph()
        graph.add_task("a", 1.0)
        graph.add_task("b", 2.0, deps=["a"])
        sim = SimulatedBackend(4, cost_model=NO_OVERHEAD).run(graph)
        real = threaded.run(graph)
        assert real.schedule.makespan == sim.schedule.makespan
        assert real.schedule.order_started() == \
            sim.schedule.order_started()
        assert real.executed_real

    def test_execution_result_delegates_schedule_queries(self, threaded):
        graph = TaskGraph()
        graph.add_task("a", 1.0)
        result = threaded.run(graph)
        assert isinstance(result, ExecutionResult)
        assert result.schedule.start_of("a") == 0.0
        assert result.schedule.end_of("a") == pytest.approx(1.0)


class TestThreadedExecution:
    def test_dependencies_respected(self, threaded):
        log, lock = [], threading.Lock()
        for _ in range(5):
            del log[:]
            threaded.run(diamond_graph(log, lock))
            assert log[0] == "a" and log[-1] == "d"
            assert sorted(log) == ["a", "b", "c", "d"]

    def test_values_captured(self, threaded):
        graph = TaskGraph()
        graph.add_task("six", 0.0, action=lambda: 6)
        graph.add_task("seven", 0.0, action=lambda: 7)
        result = threaded.run(graph)
        assert result.values == {"six": 6, "seven": 7}

    @pytest.mark.stress
    def test_independent_tasks_really_overlap(self, threaded):
        # Timing-dependent (a starved runner can serialise the threads),
        # hence stress-marked and run in the quarantined CI job.
        graph = TaskGraph()
        for name in ("s0", "s1"):
            graph.add_task(name, 0.0, action=lambda: time.sleep(0.05))
        result = threaded.run(graph)
        assert result.overlapped("s0", "s1")
        assert result.wall_time < 0.098  # strictly less than serial

    def test_priority_orders_dispatch_with_one_thread(self):
        backend = ThreadedBackend(1, cost_model=NO_OVERHEAD, max_threads=1,
                                  pace=0.0)
        try:
            log, lock = [], threading.Lock()

            def record(name):
                def action():
                    with lock:
                        log.append(name)
                return action

            graph = TaskGraph()
            graph.add_task("low", 0.0, priority=-1, action=record("low"))
            graph.add_task("high", 0.0, priority=5, action=record("high"))
            graph.add_task("mid", 0.0, priority=0, action=record("mid"))
            backend.run(graph)
            assert log == ["high", "mid", "low"]
        finally:
            backend.close()

    def test_exceptions_propagate(self, threaded):
        graph = TaskGraph()

        def boom():
            raise RuntimeError("task exploded")

        graph.add_task("ok", 0.0, action=lambda: None)
        graph.add_task("bad", 0.0, deps=["ok"], action=boom)
        with pytest.raises(RuntimeError, match="task exploded"):
            threaded.run(graph)
        # The pool must survive a failed run.
        result = threaded.run(TaskGraph())
        assert result.wall_time == 0.0

    def test_pace_stretches_execution_to_simulated_durations(self):
        backend = ThreadedBackend(2, cost_model=NO_OVERHEAD, pace=1.0)
        try:
            graph = TaskGraph()
            graph.add_task("a", 0.02)
            graph.add_task("b", 0.02, deps=["a"])
            result = backend.run(graph)
            assert result.wall_time >= 0.04  # two paced tasks in sequence
        finally:
            backend.close()

    @pytest.mark.stress
    def test_recovery_overlaps_counts_cross_thread_overlap(self, threaded):
        graph = TaskGraph()
        graph.add_task("work", 0.0, kind=TaskKind.COMPUTE,
                       action=lambda: time.sleep(0.05))
        graph.add_task("r", 0.0, kind=TaskKind.RECOVERY, priority=-1,
                       action=lambda: time.sleep(0.05))
        result = threaded.run(graph)
        assert result.recovery_overlaps() == 1

    def test_measured_breakdown_accounts_by_kind(self, threaded):
        graph = TaskGraph()
        graph.add_task("work", 0.0, action=lambda: time.sleep(0.02))
        graph.add_task("r", 0.0, kind=TaskKind.RECOVERY,
                       deps=["work"], action=lambda: time.sleep(0.02))
        result = threaded.run(graph)
        breakdown = result.measured_breakdown(threaded.thread_count)
        assert breakdown.useful >= 0.015
        assert breakdown.recovery >= 0.015
        assert breakdown.idle >= 0.0


class TestPageLocks:
    def test_same_page_tasks_serialise(self, threaded):
        counter = {"value": 0}

        def racy_increment():
            seen = counter["value"]
            time.sleep(0.01)          # widen the race window
            counter["value"] = seen + 1

        graph = TaskGraph()
        for i in range(4):
            graph.add_task(f"t{i}", 0.0, page=7, action=racy_increment)
        result = threaded.run(graph)
        assert counter["value"] == 4
        intervals = list(result.wall_intervals.values())
        for i, a in enumerate(intervals):
            for b in intervals[i + 1:]:
                assert not a.overlaps(b)

    @pytest.mark.stress
    def test_different_pages_do_not_serialise(self, threaded):
        graph = TaskGraph()
        graph.add_task("p0", 0.0, page=0, action=lambda: time.sleep(0.05))
        graph.add_task("p1", 0.0, page=1, action=lambda: time.sleep(0.05))
        result = threaded.run(graph)
        assert result.overlapped("p0", "p1")

    def test_lock_table_reuses_locks(self):
        table = PageLockTable()
        assert table.lock_for(3) is table.lock_for(3)
        assert table.lock_for(3) is not table.lock_for(4)
        assert len(table) == 2


class TestVulnerableWindowMonitor:
    def test_records_windows_and_dues(self):
        monitor = VulnerableWindowMonitor()
        monitor.record_window("r2->beta", 1.0, 1.5)
        monitor.record_window("degenerate", 2.0, 2.0)   # ignored
        monitor.note_due("g", 3, sim_time=1.2, point="A", in_window=True)
        monitor.note_due("x", 1, sim_time=0.1, point="A", in_window=False)
        summary = monitor.summary()
        assert summary["windows"] == 1
        assert summary["total_window"] == pytest.approx(0.5)
        assert summary["dues_observed"] == 2
        assert summary["dues_in_window"] == 1
        assert monitor.dues_in_window == 1

    def test_observe_measures_pairs_and_overlap(self):
        monitor = VulnerableWindowMonitor()
        schedule_graph = TaskGraph()
        schedule_graph.add_task("r2_1", 0.0, kind=TaskKind.RECOVERY)
        schedule_graph.add_task("rho1:0", 0.0, kind=TaskKind.REDUCTION)
        schedule_graph.add_task("beta1", 0.0, kind=TaskKind.REDUCTION)
        backend = SimulatedBackend(2, cost_model=NO_OVERHEAD)
        result = backend.run(schedule_graph)
        result.executed_real = True
        result.wall_intervals = {
            "r2_1": WallInterval(0.0, 0.4, worker=1),
            "rho1:0": WallInterval(0.0, 0.6, worker=0),
            "beta1": WallInterval(0.7, 0.8, worker=0),
        }
        monitor.observe(result, (("r2_1", "beta1"),))
        summary = monitor.summary()
        assert summary["overlapped_recoveries"] == 1
        assert summary["windows"] == 1
        assert summary["total_window"] == pytest.approx(0.3)
        assert summary["concurrency_observed"]

    def test_thread_safe_scan_recording(self):
        monitor = VulnerableWindowMonitor()
        threads = [threading.Thread(
            target=lambda: [monitor.record_scan("r1", 1) for _ in range(100)])
            for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        summary = monitor.summary()
        assert summary["recovery_scans"] == 400
        assert summary["pages_seen_by_scans"] == 400
