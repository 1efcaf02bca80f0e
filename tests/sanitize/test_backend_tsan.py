"""The sanitizer against the real threaded backend.

Three properties the suite pins:

* a clean solve under ``REPRO_TSAN=1`` records accesses (the bridge is
  live) and reports **zero** races;
* bit-identity holds with the sanitizer on — instrumentation observes,
  it never changes what the solver computes;
* the executor's completion-to-dispatch hand-off is an ordering edge the
  detector sees: two tasks that write one declared resource race when
  nothing orders them (a barrier in their bodies forces the overlap),
  and are silent when a dependency does.
"""

from __future__ import annotations

import threading

import pytest

from repro.runtime.async_exec import ThreadedBackend
from repro.runtime.graph import TaskGraph
from repro.runtime.plan import compile_plan
from repro.sanitize import analyze, enabled, instrument
from repro.sanitize.explore import (ExploreProblem, _solve_cell,
                                    reference_token, solution_token)

RESOURCE = "seg:v[0]"


def two_writers(ordered: bool):
    """Tasks ``a`` and ``b`` writing :data:`RESOURCE`, ``b`` after ``a``
    when ``ordered``."""
    graph = TaskGraph()
    graph.add_task("a", 0.0, writes={RESOURCE})
    graph.add_task("b", 0.0, deps=["a"] if ordered else [],
                   writes={RESOURCE})
    return compile_plan(graph)


def unordered(first, second):
    """Tasks ``a`` and ``b`` that nothing orders, declaring
    :data:`RESOURCE` as ``first`` and ``second`` (``"reads"`` or
    ``"writes"``)."""
    graph = TaskGraph()
    graph.add_task("a", 0.0, **{first: {RESOURCE}})
    graph.add_task("b", 0.0, **{second: {RESOURCE}})
    return compile_plan(graph)


def run_on_two_threads(plan, actions=None):
    backend = ThreadedBackend(num_workers=2, pace=0.0)
    try:
        backend.execute(plan, actions)
    finally:
        backend.close()
    return analyze()


def run_overlapped(plan):
    """Run ``plan``'s two tasks with bodies that each block until both
    are in flight."""
    barrier = threading.Barrier(2)
    return run_on_two_threads(plan, [lambda: barrier.wait(timeout=10.0)] * 2)


class TestDispatchOrdering:
    def test_unordered_writers_are_flagged(self, tsan):
        # find_races would report this graph; compile_plan runs no race
        # check, so the backend gets it.  Each body blocks until both
        # tasks are in flight: only two tasks nothing orders can get there.
        report = run_overlapped(two_writers(ordered=False))
        assert not report.ok, "unordered writers went undetected"
        assert [r.resource for r in report.races] == [RESOURCE], \
            report.render()

    def test_ordered_writers_are_silent(self, tsan):
        report = run_on_two_threads(two_writers(ordered=True))
        assert report.ok, report.render()
        assert report.accesses >= 2  # both writes were bridged

    def test_an_unordered_reader_and_writer_are_flagged(self, tsan):
        report = run_overlapped(unordered("reads", "writes"))
        assert [r.resource for r in report.races] == [RESOURCE], \
            report.render()

    def test_unordered_readers_are_silent(self, tsan):
        """Overlap alone is no race: two reads of one resource, forced
        to run at once, stay silent."""
        report = run_overlapped(unordered("reads", "reads"))
        assert report.ok, report.render()
        assert report.accesses >= 2  # both reads were bridged


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
        backend = ThreadedBackend(num_workers=2, pace=0.0)
        try:
            assert isinstance(backend._cond, threading.Condition)
            assert type(backend._run_lock) is type(threading.Lock())
        finally:
            backend.close()

    def test_tsan_unset_solve_matches_reference(self, monkeypatch):
        monkeypatch.delenv(instrument.TSAN_ENV, raising=False)
        problem = ExploreProblem(points=12, page_size=32)
        ref = reference_token(problem)
        result = _solve_cell(problem, "threaded", "local", "wall", 1)
        assert solution_token(result) == ref
        assert len(instrument.LOG) == 0
