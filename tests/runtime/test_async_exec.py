"""Tests for the execution backends: protocol, threaded runtime, and
the fold of a solve's measured side."""

import os
import threading
import time

import pytest

from repro.config import MAX_WORKERS_ENV
from repro.runtime.async_exec import ThreadedBackend
from repro.runtime.backend import (ExecutionFold, ExecutionResult,
                                   SimulatedBackend)
from repro.runtime.cost_model import CostModel
from repro.runtime.graph import TaskGraph, verify_graph
from repro.runtime.plan import compile_plan
from repro.runtime.runtime import RuntimeSpec, make_executor
from repro.runtime.task import TaskKind

NO_OVERHEAD = CostModel(task_overhead=0.0)


@pytest.fixture
def threaded():
    backend = ThreadedBackend(4, cost_model=NO_OVERHEAD, pace=0.0)
    yield backend
    backend.close()


def compiled(tasks):
    """The plan of ``(name, duration, action, graph keywords)`` tasks
    and its action table, in plan order; the graph is checked race-free
    first."""
    graph = TaskGraph()
    for name, duration, _, keywords in tasks:
        graph.add_task(name, duration, **keywords)
    verify_graph(graph)
    return compile_plan(graph), [action for _, _, action, _ in tasks]


def diamond(log, lock):
    """a -> (b, c) -> d, each action recording its name thread-safely."""
    def record(name):
        def action():
            with lock:
                log.append(name)
        return action

    return compiled([("a", 0.0, record("a"), {}),
                     ("b", 0.0, record("b"), {"deps": ["a"]}),
                     ("c", 0.0, record("c"), {"deps": ["a"]}),
                     ("d", 0.0, record("d"), {"deps": ["b", "c"]})])


def on_lanes(monkeypatch, lanes):
    """A backend of ``lanes`` simulated workers on as many usable CPUs:
    ``lanes`` lanes, unless ``REPRO_MAX_WORKERS`` caps them."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(lanes)), raising=False)
    return ThreadedBackend(lanes, cost_model=NO_OVERHEAD, pace=0.0)


def overlap(result, a, b):
    """True if tasks ``a`` and ``b`` (plan indices) ran at the same time."""
    return (result.starts[a] < result.ends[b]
            and result.starts[b] < result.ends[a])


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
        plan, actions = diamond(log, lock)
        result = backend.execute(plan, actions)
        assert log[0] == "a" and log[-1] == "d"
        assert sorted(log) == ["a", "b", "c", "d"]
        assert log == [plan.names[i]
                       for i in backend.simulate(plan).launch_order]
        assert set(result.workers) == {0}

    def test_simulated_and_threaded_schedules_match(self, threaded):
        plan, _ = compiled([("a", 1.0, None, {}),
                            ("b", 2.0, None, {"deps": ["a"]})])
        sim = SimulatedBackend(4, cost_model=NO_OVERHEAD).simulate(plan)
        real = threaded.simulate(plan)
        assert real.makespan == sim.makespan
        assert real.launch_order == sim.launch_order

    def test_simulate_answers_schedule_queries_execute_measures(self,
                                                                threaded):
        plan, _ = compiled([("a", 1.0, None, {})])
        schedule = threaded.simulate(plan)
        assert schedule.starts[plan.index("a")] == 0.0
        assert schedule.ends[plan.index("a")] == pytest.approx(1.0)
        result = threaded.execute(plan)
        assert isinstance(result, ExecutionResult)
        assert result.plan is plan
        assert len(result.starts) == len(result.ends) == 1

    def test_a_plan_runs_with_an_action_table(self, threaded):
        """The one entry point: a compiled plan, bodies in plan order, a
        durations vector checked on every call."""
        ran = []
        plan, _ = compiled([("a", 0.0, None, {}),
                            ("b", 0.0, None, {"deps": ["a"]})])
        for backend in (threaded, SimulatedBackend(2)):
            del ran[:]
            result = backend.execute(plan, [lambda: ran.append("a"), None])
            assert ran == ["a"]
            assert result.ends[0] <= result.starts[1]
            assert backend.execute(plan).plan is plan
            with pytest.raises(ValueError, match="2 tasks, got 1 actions"):
                backend.execute(plan, [None])
            with pytest.raises(ValueError, match="'b' has negative duration"):
                backend.execute(plan, durations=[0.0, -1.0])


class TestLanes:
    """A plan runs on one lane per usable CPU, at most ``num_workers``
    and at least two; ``REPRO_MAX_WORKERS`` caps that."""

    @pytest.fixture(autouse=True)
    def uncapped(self, monkeypatch):
        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)

    @staticmethod
    def lanes(monkeypatch, cpus, workers=8):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        with ThreadedBackend(workers) as backend:
            return backend.thread_count

    def test_one_usable_cpu_still_gets_two_lanes(self, monkeypatch):
        assert self.lanes(monkeypatch, cpus=1) == 2

    def test_one_lane_per_usable_cpu_up_to_the_simulated_workers(
            self, monkeypatch):
        assert self.lanes(monkeypatch, cpus=16) == 8
        assert self.lanes(monkeypatch, cpus=3) == 3
        assert self.lanes(monkeypatch, cpus=16, workers=1) == 1

    def test_the_env_cap_runs_the_plan_on_the_caller_alone(self,
                                                           monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "1")
        ran = []
        plan, actions = compiled([
            (name, 0.0,
             lambda name=name: ran.append((name, threading.get_ident())),
             {"priority": priority})
            for name, priority in (("low", -1), ("high", 5), ("mid", 0))])
        threads = threading.active_count()
        with ThreadedBackend(8, cost_model=NO_OVERHEAD,
                             pace=0.0) as backend:
            assert backend.thread_count == 1
            result = backend.execute(plan, actions)
            assert threading.active_count() == threads
        assert ran == [(name, threading.get_ident())
                       for name in ("high", "mid", "low")]
        assert result.workers == [0, 0, 0]

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_a_closed_backend_refuses_to_execute(self, lanes):
        plan, actions = compiled([("a", 0.0, None, {})])
        backend = ThreadedBackend(lanes, pace=0.0)
        backend.execute(plan, actions)
        backend.close()
        with pytest.raises(RuntimeError, match="backend is closed"):
            backend.execute(plan, actions)


class TestThreadedExecution:
    def test_dependencies_respected(self, threaded):
        log, lock = [], threading.Lock()
        plan, actions = diamond(log, lock)
        for _ in range(5):
            del log[:]
            threaded.execute(plan, actions)
            assert log[0] == "a" and log[-1] == "d"
            assert sorted(log) == ["a", "b", "c", "d"]

    def test_each_action_runs_once_and_every_task_is_measured(self,
                                                              threaded):
        """A ``None`` entry is a task without a body: timed, not run."""
        log, lock = [], threading.Lock()

        def record(name):
            def action():
                with lock:
                    log.append(name)
            return action

        plan, actions = compiled([("six", 0.0, record("six"), {}),
                                  ("seven", 0.0, record("seven"), {}),
                                  ("bare", 0.0, None, {"deps": ["six"]})])
        result = threaded.execute(plan, actions)
        assert sorted(log) == ["seven", "six"]
        assert all(s <= e for s, e in zip(result.starts, result.ends,
                                          strict=True))
        assert result.ends[0] <= result.starts[2]
        assert set(result.workers) <= set(range(threaded.thread_count))

    @pytest.mark.stress
    def test_independent_tasks_really_overlap(self, threaded):
        # Timing-dependent (a starved runner can serialise the threads),
        # hence stress-marked and run in the quarantined CI job.
        plan, actions = compiled([(name, 0.0, lambda: time.sleep(0.05), {})
                                  for name in ("s0", "s1")])
        result = threaded.execute(plan, actions)
        assert overlap(result, 0, 1)
        assert result.wall_time < 0.098  # strictly less than serial

    def test_priority_orders_dispatch_with_one_thread(self):
        backend = ThreadedBackend(1, cost_model=NO_OVERHEAD, pace=0.0)
        try:
            log, lock = [], threading.Lock()

            def record(name):
                def action():
                    with lock:
                        log.append(name)
                return action

            backend.execute(*compiled([
                (name, 0.0, record(name), {"priority": priority})
                for name, priority in (("low", -1), ("high", 5), ("mid", 0))]))
            assert log == ["high", "mid", "low"]
        finally:
            backend.close()

    def test_exceptions_propagate(self, threaded):
        def boom():
            raise RuntimeError("task exploded")

        with pytest.raises(RuntimeError, match="task exploded"):
            threaded.execute(*compiled([
                ("ok", 0.0, lambda: None, {}),
                ("bad", 0.0, boom, {"deps": ["ok"]})]))
        # The pool must survive a failed run.
        result = threaded.execute(compile_plan(TaskGraph()))
        assert result.wall_time == 0.0

    def test_pace_stretches_execution_to_simulated_durations(self):
        backend = ThreadedBackend(2, cost_model=NO_OVERHEAD, pace=1.0)
        try:
            plan, _ = compiled([("a", 0.02, None, {}),
                                ("b", 0.02, None, {"deps": ["a"]})])
            result = backend.execute(plan)
            assert result.wall_time >= 0.04  # two paced tasks in sequence
        finally:
            backend.close()

    @pytest.mark.stress
    def test_recovery_overlaps_counts_cross_thread_overlap(self, threaded):
        result = threaded.execute(*compiled([
            ("work", 0.0, lambda: time.sleep(0.05),
             {"kind": TaskKind.COMPUTE}),
            ("r", 0.0, lambda: time.sleep(0.05),
             {"kind": TaskKind.RECOVERY, "priority": -1})]))
        assert result.recovery_overlaps() == 1

    def test_measured_breakdown_accounts_by_kind(self, threaded):
        result = threaded.execute(*compiled([
            ("work", 0.0, lambda: time.sleep(0.02), {}),
            ("r", 0.0, lambda: time.sleep(0.02),
             {"kind": TaskKind.RECOVERY, "deps": ["work"]})]))
        breakdown = result.measured_breakdown(threaded.thread_count)
        assert breakdown.useful >= 0.015
        assert breakdown.recovery >= 0.015
        assert breakdown.idle >= 0.0


WIDTH = 200


def wide_then_deep(counts, fail_at=None):
    """``WIDTH`` independent roots feeding one join, then a
    ``WIDTH``-long chain: the widest fan-in and the longest run of
    single-successor hand-offs the dispatch loop sees.  Returns the plan
    and its action table."""
    def body(name):
        def action():
            counts[name] = counts.get(name, 0) + 1   # one writer per key
            if name == fail_at:
                raise RuntimeError(f"{name} exploded")
        return action

    roots = [f"root{i}" for i in range(WIDTH)]
    tasks = [(name, 0.0, body(name), {}) for name in roots]
    tasks.append(("join", 0.0, body("join"), {"deps": roots}))
    previous = "join"
    for i in range(WIDTH):
        tasks.append((f"link{i}", 0.0, body(f"link{i}"),
                      {"deps": [previous]}))
        previous = f"link{i}"
    return compiled(tasks)


@pytest.mark.parametrize("threads", [1, 2, 8])
class TestHandOff:
    """The plan loop's wake-up discipline — a completion notifies one
    worker per task it released, the submitter waits on its own
    condition — can lose neither a wake-up nor an error."""

    def run_once(self, backend):
        counts = {}
        plan, actions = wide_then_deep(counts)
        finished = []
        runner = threading.Thread(
            target=lambda: finished.append(backend.execute(plan, actions)))
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

    def test_wide_then_deep_runs_every_task_once(self, threads,
                                                 monkeypatch):
        with on_lanes(monkeypatch, threads) as backend:
            self.run_once(backend)

    @pytest.mark.stress
    def test_wide_then_deep_repeated_under_a_short_switch_interval(
            self, threads, monkeypatch):
        import sys
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with on_lanes(monkeypatch, threads) as backend:
                for _ in range(50):
                    self.run_once(backend)
        finally:
            sys.setswitchinterval(interval)

    def test_error_mid_graph_clears_drains_and_reraises(self, threads,
                                                        monkeypatch):
        with on_lanes(monkeypatch, threads) as backend:
            counts = {}
            with pytest.raises(RuntimeError, match="link3 exploded"):
                backend.execute(*wide_then_deep(counts, fail_at="link3"))
            # the queue was cleared: nothing past the failure ran, and
            # nothing was left in flight or ready
            assert "link4" not in counts and counts["link3"] == 1
            assert (backend._inflight, backend._ready) == (0, [])
            # the first error wins even when several tasks raise
            with pytest.raises(ZeroDivisionError):
                backend.execute(*compiled([(f"t{i}", 0.0, lambda: 1 / 0, {})
                                           for i in range(4 * threads)]))
            self.run_once(backend)           # and the pool still works

    def test_interrupted_wait_drains_before_the_next_run(
            self, threads, monkeypatch):
        """The caller leaving its wait on an exception stops the run like
        a task error: no successor is released, the in-flight task is
        drained, and no stale completion reaches the next run.  Only a
        caller with a pool lane ever waits, so one lane runs as two."""
        with on_lanes(monkeypatch, max(threads, 2)) as backend:
            started, release = threading.Event(), threading.Event()
            ran = []
            caller = threading.current_thread()

            def root():
                # On a pool lane, block; on the caller, hold the caller
                # until the pool lane has its root in flight, so that it
                # then finds nothing ready and waits.
                if threading.current_thread() is caller:
                    started.wait(10.0)
                    return
                started.set()
                release.wait(10.0)
                ran.append("a")

            plan, actions = compiled([
                ("a0", 0.0, root, {}), ("a1", 0.0, root, {}),
                ("b", 0.0, lambda: ran.append("b"),
                 {"deps": ["a0", "a1"]})])
            wait = backend._done.wait

            def interrupted(timeout=None):
                monkeypatch.setattr(backend._done, "wait", wait)
                assert started.is_set()   # a pool lane's root is in flight
                threading.Timer(0.05, release.set).start()
                raise KeyboardInterrupt

            monkeypatch.setattr(backend._done, "wait", interrupted)
            with pytest.raises(KeyboardInterrupt):
                backend.execute(plan, actions)
            assert ran == ["a"]              # drained, successor dropped
            assert (backend._run, backend._error) == (None, None)
            assert (backend._inflight, backend._ready) == (0, [])
            self.run_once(backend)


class TestExecutionFold:
    """A solve's measured side is the in-order fold of its runs."""

    @staticmethod
    def recovery_then_beta():
        plan, _ = compiled([
            ("r2_1", 0.0, None, {"kind": TaskKind.RECOVERY}),
            ("rho1:0", 0.0, None, {"kind": TaskKind.REDUCTION}),
            ("beta1", 0.0, None, {"kind": TaskKind.REDUCTION})])
        return ExecutionResult(plan, starts=[0.0, 0.0, 0.7],
                               ends=[0.4, 0.6, 0.8], workers=[1, 0, 0],
                               wall_time=0.8)

    def test_records_windows_and_nothing_of_the_simulated_clock(self):
        fold = ExecutionFold(threads=1)
        plan, _ = compiled([("r2_1", 0.0, None, {}),
                            ("beta1", 0.0, None, {})])
        # a gap of 0.5 s, and a pair that does not open a window
        fold.add(ExecutionResult(plan, [0.0, 1.5], [1.0, 1.6], [0, 0]),
                 [(0, 1)])
        fold.add(ExecutionResult(plan, [0.0, 2.0], [2.0, 2.1], [0, 0]),
                 [(0, 1)])
        summary = fold.summary()
        assert summary["windows"] == 1
        assert summary["total_window"] == pytest.approx(0.5)
        # DUE counts are the solve ledger's, not a wall-side measurement
        assert not any("due" in key for key in summary)

    def test_folds_pairs_overlap_scans_and_the_trace(self):
        fold = ExecutionFold(threads=2)
        result = self.recovery_then_beta()
        fold.add(result, [(0, 2)])
        summary = fold.summary()
        assert summary == {
            "runs": 1, "recovery_scans": 1, "overlapped_recoveries": 1,
            "halo_overlapped_recoveries": 0, "windows": 1,
            "total_window": summary["total_window"],
            "mean_window": summary["total_window"],
            "concurrency_observed": True}
        assert summary["total_window"] == pytest.approx(0.3)
        assert fold.trace.num_workers == 2
        assert fold.trace.breakdown == result.measured_breakdown(2)
        assert (fold.trace.wall_time, fold.trace.task_count) == (0.8, 3)
        fold.add(result, [(0, 2)])
        assert fold.summary()["recovery_scans"] == 2
        assert fold.trace.task_count == 6

    def test_without_the_wall_clock_a_run_only_counts(self):
        fold = ExecutionFold(threads=2, wall=False)
        fold.add(self.recovery_then_beta(), [(0, 2)])
        summary = fold.summary()
        assert (summary["runs"], summary["recovery_scans"]) == (1, 1)
        assert summary["windows"] == summary["overlapped_recoveries"] == 0
        assert fold.trace is None
