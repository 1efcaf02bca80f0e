"""Tests for the execution backends: protocol, threaded runtime, monitor."""

import threading
import time

import pytest

from repro.runtime.async_exec import (DueRecord, PageLockTable, ThreadedBackend,
                                      VulnerableWindowMonitor)
from repro.runtime.backend import (ExecutionResult, SimulatedBackend,
                                   WallInterval)
from repro.runtime.cost_model import CostModel
from repro.runtime.graph import TaskGraph
from repro.runtime.plan import compile_plan
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
        backend = make_executor(RuntimeSpec(scheduler="threaded"), 1,
                                pace=0.0)
        assert isinstance(backend, ThreadedBackend)
        assert (backend.thread_count, backend.pace) == (1, 0.0)
        backend.close()

    def test_simulated_backend_replays_actions_in_launch_order(self):
        log, lock = [], threading.Lock()
        backend = SimulatedBackend(2, cost_model=NO_OVERHEAD)
        graph = diamond_graph(log, lock)
        result = backend.execute(graph)
        assert log[0] == "a" and log[-1] == "d"
        assert sorted(log) == ["a", "b", "c", "d"]
        assert log == backend.simulate(graph).order_started()
        assert not result.executed_real
        assert result.values["b"] == "b"

    def test_simulated_and_threaded_schedules_match(self, threaded):
        graph = TaskGraph()
        graph.add_task("a", 1.0)
        graph.add_task("b", 2.0, deps=["a"])
        sim = SimulatedBackend(4, cost_model=NO_OVERHEAD).simulate(graph)
        real = threaded.simulate(graph)
        assert real.makespan == sim.makespan
        assert real.order_started() == sim.order_started()
        assert threaded.execute(graph).executed_real

    def test_simulate_answers_schedule_queries_execute_measures(self,
                                                                threaded):
        graph = TaskGraph()
        graph.add_task("a", 1.0)
        schedule = threaded.simulate(graph)
        assert schedule.start_of("a") == 0.0
        assert schedule.end_of("a") == pytest.approx(1.0)
        result = threaded.execute(graph)
        assert isinstance(result, ExecutionResult)
        assert result.plan.names == ("a",)
        assert set(result.wall_intervals) == {"a"}

    def test_a_plan_runs_with_an_action_table(self, threaded):
        """The native entry point: a compiled plan, bodies in plan
        order, a durations vector checked on every call."""
        graph = TaskGraph()
        graph.add_task("a", 0.0)
        graph.add_task("b", 0.0, deps=["a"])
        plan = compile_plan(graph)
        for backend in (threaded, SimulatedBackend(2)):
            result = backend.execute(plan, [lambda: 1, None])
            assert result.results == [1, None]
            assert result.values == {"a": 1, "b": None}
            assert result.ends[0] <= result.starts[1]
            assert backend.execute(plan).results == [None, None]
            with pytest.raises(ValueError, match="2 tasks, got 1 actions"):
                backend.execute(plan, [None])
            with pytest.raises(ValueError, match="'b' has negative duration"):
                backend.execute(plan, durations=[0.0, -1.0])
            with pytest.raises(ValueError, match="carries its own"):
                backend.execute(graph, [None, None])


class TestThreadedExecution:
    def test_dependencies_respected(self, threaded):
        log, lock = [], threading.Lock()
        for _ in range(5):
            del log[:]
            threaded.execute(diamond_graph(log, lock))
            assert log[0] == "a" and log[-1] == "d"
            assert sorted(log) == ["a", "b", "c", "d"]

    def test_values_captured(self, threaded):
        graph = TaskGraph()
        graph.add_task("six", 0.0, action=lambda: 6)
        graph.add_task("seven", 0.0, action=lambda: 7)
        result = threaded.execute(graph)
        assert result.values == {"six": 6, "seven": 7}

    @pytest.mark.stress
    def test_independent_tasks_really_overlap(self, threaded):
        # Timing-dependent (a starved runner can serialise the threads),
        # hence stress-marked and run in the quarantined CI job.
        graph = TaskGraph()
        for name in ("s0", "s1"):
            graph.add_task(name, 0.0, action=lambda: time.sleep(0.05))
        result = threaded.execute(graph)
        intervals = result.wall_intervals
        assert intervals["s0"].overlaps(intervals["s1"])
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
            backend.execute(graph)
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
            threaded.execute(graph)
        # The pool must survive a failed run.
        result = threaded.execute(TaskGraph())
        assert result.wall_time == 0.0

    def test_pace_stretches_execution_to_simulated_durations(self):
        backend = ThreadedBackend(2, cost_model=NO_OVERHEAD, pace=1.0)
        try:
            graph = TaskGraph()
            graph.add_task("a", 0.02)
            graph.add_task("b", 0.02, deps=["a"])
            result = backend.execute(graph)
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
        result = threaded.execute(graph)
        assert result.recovery_overlaps() == 1

    def test_measured_breakdown_accounts_by_kind(self, threaded):
        graph = TaskGraph()
        graph.add_task("work", 0.0, action=lambda: time.sleep(0.02))
        graph.add_task("r", 0.0, kind=TaskKind.RECOVERY,
                       deps=["work"], action=lambda: time.sleep(0.02))
        result = threaded.execute(graph)
        breakdown = result.measured_breakdown(threaded.thread_count)
        assert breakdown.useful >= 0.015
        assert breakdown.recovery >= 0.015
        assert breakdown.idle >= 0.0


WIDTH = 200


def wide_then_deep(counts, fail_at=None):
    """``WIDTH`` independent roots feeding one join, then a
    ``WIDTH``-long chain: the widest fan-in and the longest run of
    single-successor hand-offs the dispatch loop sees."""
    graph = TaskGraph()

    def body(name):
        def action():
            counts[name] = counts.get(name, 0) + 1   # one writer per key
            if name == fail_at:
                raise RuntimeError(f"{name} exploded")
        return action

    roots = [f"root{i}" for i in range(WIDTH)]
    for name in roots:
        graph.add_task(name, 0.0, action=body(name))
    graph.add_task("join", 0.0, deps=roots, action=body("join"))
    previous = "join"
    for i in range(WIDTH):
        graph.add_task(f"link{i}", 0.0, deps=[previous],
                       action=body(f"link{i}"))
        previous = f"link{i}"
    return graph


@pytest.mark.parametrize("threads", [1, 2, 8])
class TestHandOff:
    """The plan loop's wake-up discipline — a completion notifies one
    worker per task it released, the submitter waits on its own
    condition — can lose neither a wake-up nor an error."""

    def run_once(self, backend):
        counts = {}
        graph = wide_then_deep(counts)
        finished = []
        runner = threading.Thread(
            target=lambda: finished.append(backend.execute(graph)))
        runner.start()
        runner.join(timeout=60.0)
        assert not runner.is_alive(), "dispatch lost a wake-up"
        (result,) = finished
        assert counts == dict.fromkeys(result.plan.names, 1)
        for i, deps in enumerate(result.plan.deps):
            assert result.starts[i] <= result.ends[i]
            for d in deps:
                assert result.ends[d] <= result.starts[i]
        assert set(result.workers) <= set(range(backend.thread_count))

    def test_wide_then_deep_runs_every_task_once(self, threads):
        with ThreadedBackend(threads, cost_model=NO_OVERHEAD,
                             max_threads=threads, pace=0.0) as backend:
            self.run_once(backend)

    @pytest.mark.stress
    def test_wide_then_deep_repeated_under_a_short_switch_interval(
            self, threads):
        import sys
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadedBackend(threads, cost_model=NO_OVERHEAD,
                                 max_threads=threads, pace=0.0) as backend:
                for _ in range(50):
                    self.run_once(backend)
        finally:
            sys.setswitchinterval(interval)

    def test_error_mid_graph_clears_drains_and_reraises(self, threads):
        with ThreadedBackend(threads, cost_model=NO_OVERHEAD,
                             max_threads=threads, pace=0.0) as backend:
            counts = {}
            graph = wide_then_deep(counts, fail_at="link3")
            with pytest.raises(RuntimeError, match="link3 exploded"):
                backend.execute(graph)
            # the queue was cleared: nothing past the failure ran, and
            # nothing was left in flight or ready
            assert "link4" not in counts and counts["link3"] == 1
            assert (backend._inflight, backend._ready) == (0, [])
            # the first error wins even when several tasks raise
            racing = TaskGraph()
            for i in range(4 * threads):
                racing.add_task(f"t{i}", 0.0, action=lambda: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                backend.execute(racing)
            self.run_once(backend)           # and the pool still works

    def test_interrupted_wait_drains_before_the_next_run(
            self, threads, monkeypatch):
        """The submitter leaving its wait on an exception stops the run
        like a task error: no successor is released, the in-flight task
        is drained, and no stale completion reaches the next run."""
        with ThreadedBackend(threads, cost_model=NO_OVERHEAD,
                             max_threads=threads, pace=0.0) as backend:
            started, release = threading.Event(), threading.Event()
            ran = []

            def blocker():
                started.set()
                release.wait(10.0)
                ran.append("a")

            graph = TaskGraph()
            graph.add_task("a", 0.0, action=blocker)
            graph.add_task("b", 0.0, deps=["a"],
                           action=lambda: ran.append("b"))
            wait = backend._done.wait

            def interrupted(timeout=None):
                monkeypatch.setattr(backend._done, "wait", wait)
                while not started.is_set():     # "a" is in flight
                    wait(0.01)
                threading.Timer(0.05, release.set).start()
                raise KeyboardInterrupt

            monkeypatch.setattr(backend._done, "wait", interrupted)
            with pytest.raises(KeyboardInterrupt):
                backend.execute(graph)
            assert ran == ["a"]              # drained, successor dropped
            assert (backend._run, backend._error) == (None, None)
            assert (backend._inflight, backend._ready) == (0, [])
            self.run_once(backend)


class TestPageLocks:
    def test_same_page_tasks_serialise(self, threaded, monkeypatch):
        # Deliberately unordered same-page writers: the page lock, not a
        # dependency, serialises them — what the structural check flags.
        monkeypatch.delenv("REPRO_VERIFY_GRAPHS", raising=False)
        counter = {"value": 0}

        def racy_increment():
            seen = counter["value"]
            time.sleep(0.01)          # widen the race window
            counter["value"] = seen + 1

        graph = TaskGraph()
        for i in range(4):
            graph.add_task(f"t{i}", 0.0, page=7, action=racy_increment)
        result = threaded.execute(graph)
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
        result = threaded.execute(graph)
        intervals = result.wall_intervals
        assert intervals["p0"].overlaps(intervals["p1"])

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
        monitor.note_dues([DueRecord("g", 3, sim_time=1.2, point="A",
                                     in_window=True),
                           DueRecord("x", 1, sim_time=0.1, point="A",
                                     in_window=False)])
        monitor.note_dues([])
        summary = monitor.summary()
        assert summary["windows"] == 1
        assert summary["total_window"] == pytest.approx(0.5)
        assert summary["dues_observed"] == 2
        assert summary["dues_in_window"] == 1
        assert monitor.dues_in_window == 1

    def test_observe_measures_pairs_and_overlap(self):
        monitor = VulnerableWindowMonitor()
        graph = TaskGraph()
        graph.add_task("r2_1", 0.0, kind=TaskKind.RECOVERY)
        graph.add_task("rho1:0", 0.0, kind=TaskKind.REDUCTION)
        graph.add_task("beta1", 0.0, kind=TaskKind.REDUCTION)
        plan = compile_plan(graph, roles={"r2": "r2_1", "beta": "beta1"})
        result = ExecutionResult(plan=plan, executed_real=True,
                                 starts=[0.0, 0.0, 0.7], ends=[0.4, 0.6, 0.8],
                                 workers=[1, 0, 0], results=[None] * 3,
                                 wall_time=0.8)
        assert result.wall_intervals["r2_1"] == WallInterval(0.0, 0.4, 1)
        monitor.observe(result, [("r2", plan.roles["r2"],
                                  plan.roles["beta"])])
        summary = monitor.summary()
        assert summary["runs"] == 1
        assert summary["overlapped_recoveries"] == 1
        assert summary["windows"] == 1
        assert summary["total_window"] == pytest.approx(0.3)
        assert summary["concurrency_observed"]
        assert monitor.window_records[0].label == "r2"
        # a run whose wall side is not an output still counts as a run
        monitor.observe(None)
        assert monitor.summary()["runs"] == 2
        assert monitor.summary()["windows"] == 1

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
