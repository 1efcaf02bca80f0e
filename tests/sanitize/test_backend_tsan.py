"""The sanitizer against the real threaded backend.

Three properties the ISSUE pins:

* a clean solve under ``REPRO_TSAN=1`` records accesses (the bridge is
  live) and reports **zero** races;
* bit-identity holds with the sanitizer on — instrumentation observes,
  it never changes what the solver computes;
* a dropped-lock mutation in the worker dispatch (no-op page locks) is
  **caught**: the same workload that is silent with real page locks
  produces a race report without them.
"""

from __future__ import annotations

import threading

import pytest

from repro.runtime.async_exec import ThreadedBackend
from repro.runtime.graph import TaskGraph
from repro.sanitize import analyze, enabled, instrument
from repro.sanitize.explore import (ExploreProblem, _solve_cell,
                                    reference_token, solution_token)


def _two_same_page_tasks(graph_action_a, graph_action_b):
    graph = TaskGraph()
    graph.add_task("a", 0.0, page=0, action=graph_action_a)
    graph.add_task("b", 0.0, page=0, action=graph_action_b)
    return graph


class _NoOpPageLocks:
    """The dropped-lock mutation: worker dispatch skips page locking."""

    def holding(self, page):
        import contextlib
        return contextlib.nullcontext()


class TestDroppedLockMutation:
    def test_mutated_dispatch_is_flagged(self, tsan):
        backend = ThreadedBackend(num_workers=2, max_threads=2, pace=0.0)
        backend.page_locks = _NoOpPageLocks()
        # Force genuine overlap: each action blocks until both tasks are
        # in flight — only possible because the page lock is gone.
        barrier = threading.Barrier(2)
        graph = _two_same_page_tasks(lambda: barrier.wait(timeout=10.0),
                                     lambda: barrier.wait(timeout=10.0))
        try:
            backend.execute(graph)
        finally:
            backend.close()
        report = analyze()
        assert not report.ok, "dropped page lock went undetected"
        assert any(r.resource == "page:0" for r in report.races), \
            report.render()

    def test_intact_dispatch_is_silent(self, tsan):
        backend = ThreadedBackend(num_workers=2, max_threads=2, pace=0.0)
        graph = _two_same_page_tasks(None, None)
        try:
            backend.execute(graph)
        finally:
            backend.close()
        report = analyze()
        assert report.ok, report.render()
        assert report.accesses >= 2  # both page:0 writes were bridged


class TestCleanSolveUnderTsan:
    def test_threaded_solve_zero_races_and_bit_identical(self):
        problem = ExploreProblem(points=12, page_size=32)
        ref = reference_token(problem)
        with enabled(True):
            instrument.reset()
            result = _solve_cell(problem, "threaded", "local", "wall", 1)
            report = analyze()
            instrument.reset()
        assert report.accesses > 0, "access bridge recorded nothing"
        assert report.ok, report.render()
        assert solution_token(result) == ref

    @pytest.mark.ranks
    def test_ranks_solve_zero_races_and_bit_identical(self):
        problem = ExploreProblem(points=12, page_size=32)
        ref = reference_token(problem)
        with enabled(True):
            instrument.reset()
            result = _solve_cell(problem, "threaded", "ranks", "wall", 2)
            report = analyze()
            instrument.reset()
        assert report.ok, report.render()
        assert solution_token(result) == ref


class TestOffModeNeutrality:
    def test_tsan_unset_backend_uses_raw_primitives(self, monkeypatch):
        monkeypatch.delenv(instrument.TSAN_ENV, raising=False)
        backend = ThreadedBackend(num_workers=2, max_threads=2, pace=0.0)
        try:
            assert isinstance(backend._cond, threading.Condition)
            assert type(backend._run_lock) is type(threading.Lock())
            lock = backend.page_locks.lock_for(0)
            assert type(lock) is type(threading.Lock())
        finally:
            backend.close()

    def test_tsan_unset_solve_matches_reference(self, monkeypatch):
        monkeypatch.delenv(instrument.TSAN_ENV, raising=False)
        problem = ExploreProblem(points=12, page_size=32)
        ref = reference_token(problem)
        result = _solve_cell(problem, "threaded", "local", "wall", 1)
        assert solution_token(result) == ref
        assert len(instrument.LOG) == 0
