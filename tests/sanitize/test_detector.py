"""Unit tests of the hybrid race detector and the lock-order analysis,
over synthetic event streams and tiny threaded runs."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.sanitize import analyze, make_condition, make_lock, make_rlock
from repro.sanitize.detector import analyze_events
from repro.sanitize.events import (Event, OP_ACCESS, OP_ACQUIRE, OP_GET,
                                   OP_PUT, OP_RELEASE, OP_SET, OP_WAIT_EVENT)


def _ev(seq, thread, op, obj, **kw):
    return Event(seq=seq, thread=thread, op=op, obj=obj, **kw)


def _access(seq, thread, resource, *, write, held=(), task=None):
    return _ev(seq, thread, OP_ACCESS, resource, write=write, held=held,
               stack=(f"fake.py:{seq} in t{seq}",), task=task)


class TestHappensBefore:
    def test_unordered_cross_thread_writes_race(self):
        report = analyze_events([
            _access(1, "a", "r", write=True),
            _access(2, "b", "r", write=True),
        ])
        assert len(report.races) == 1
        assert report.races[0].access == "write/write"
        assert report.races[0].resource == "r"

    def test_lock_release_acquire_orders(self):
        report = analyze_events([
            _ev(1, "a", OP_ACQUIRE, "L", held=("L",)),
            _access(2, "a", "r", write=True, held=("L",)),
            _ev(3, "a", OP_RELEASE, "L", held=("L",)),
            _ev(4, "b", OP_ACQUIRE, "L", held=("L",)),
            # second access outside the lock: ordered purely by the edge
            _ev(5, "b", OP_RELEASE, "L", held=("L",)),
            _access(6, "b", "r", write=True),
        ])
        assert report.ok
        assert report.lockset_protected == 0

    def test_queue_put_get_pairs_by_token(self):
        report = analyze_events([
            _access(1, "a", "r", write=True),
            _ev(2, "a", OP_PUT, "q"),            # token is the put's seq
            _ev(3, "b", OP_GET, "q", token=2),
            _access(4, "b", "r", write=True),
        ])
        assert report.ok

    def test_get_with_foreign_token_does_not_order(self):
        report = analyze_events([
            _access(1, "a", "r", write=True),
            _ev(2, "a", OP_PUT, "q"),
            _ev(3, "b", OP_GET, "q", token=999),   # some other put
            _access(4, "b", "r", write=True),
        ])
        assert len(report.races) == 1

    def test_event_set_wait_orders(self):
        report = analyze_events([
            _access(1, "a", "r", write=True),
            _ev(2, "a", OP_SET, "e"),
            _ev(3, "b", OP_WAIT_EVENT, "e"),
            _access(4, "b", "r", write=True),
        ])
        assert report.ok

    def test_read_read_never_conflicts(self):
        report = analyze_events([
            _access(1, "a", "r", write=False),
            _access(2, "b", "r", write=False),
        ])
        assert report.ok

    def test_write_read_conflicts(self):
        report = analyze_events([
            _access(1, "a", "r", write=True),
            _access(2, "b", "r", write=False),
        ])
        assert len(report.races) == 1
        assert report.races[0].access == "write/read"

    def test_same_thread_never_races(self):
        report = analyze_events([
            _access(1, "a", "r", write=True),
            _access(2, "a", "r", write=True),
        ])
        assert report.ok

    def test_duplicate_race_sites_dedup(self):
        # the same pair of source locations racing repeatedly is one report
        events = []
        seq = 0
        for _ in range(5):
            seq += 1
            events.append(Event(seq=seq, thread="a", op=OP_ACCESS, obj="r",
                                write=True, stack=("f.py:1 in bump",)))
            seq += 1
            events.append(Event(seq=seq, thread="b", op=OP_ACCESS, obj="r",
                                write=True, stack=("f.py:1 in bump",)))
        report = analyze_events(events)
        assert len(report.races) == 1


class TestLocksetFallback:
    def test_common_lockset_demotes_to_protected(self):
        # both sides hold L but no acquire/release events were recorded
        # (an uninstrumented channel) -> Eraser fallback, not a race
        report = analyze_events([
            _access(1, "a", "r", write=True, held=("L",)),
            _access(2, "b", "r", write=True, held=("L",)),
        ])
        assert report.ok
        assert report.lockset_protected == 1

    def test_disjoint_locksets_still_race(self):
        report = analyze_events([
            _access(1, "a", "r", write=True, held=("L1",)),
            _access(2, "b", "r", write=True, held=("L2",)),
        ])
        assert len(report.races) == 1


def _nest(seq, thread, *locks):
    """Events of one thread taking ``locks`` nested in that order and
    releasing them innermost first, numbered from ``seq``."""
    events, held = [], ()
    for lock in locks:
        held = tuple(sorted(held + (lock,)))
        events.append(_ev(seq + len(events), thread, OP_ACQUIRE, lock,
                          held=held))
    for lock in reversed(locks):
        events.append(_ev(seq + len(events), thread, OP_RELEASE, lock,
                          held=held))
        held = tuple(h for h in held if h != lock)
    return events


def _in_turn(*bodies):
    """Run each body on a thread of its own, one after the other —
    inverted orders are recorded, never raced, so nothing can deadlock."""
    for index, body in enumerate(bodies):
        thread = threading.Thread(target=body, name=f"order-{index}")
        thread.start()
        thread.join(timeout=10.0)
        assert not thread.is_alive()


class TestLockOrder:
    """The scenarios of the deleted static lock-graph pass, seen from
    the acquires a run really makes."""

    def test_ab_ba_cycle_detected_with_both_witnesses(self):
        report = analyze_events(_nest(1, "one", "S.a", "S.b")
                                + _nest(5, "two", "S.b", "S.a"))
        [cycle] = report.lock_cycles
        assert cycle.locks == ("S.a", "S.b")
        assert [(w.thread, w.seq) for w in cycle.witnesses] == [
            ("one", 2), ("two", 6)]
        assert not report.ok and report.summary()["lock_cycles"] == 1
        text = report.render()
        assert "lock-order cycle S.a -> S.b -> S.a" in text
        assert "'one' (event 2)" in text and "'two' (event 6)" in text

    def test_consistent_order_is_clean(self):
        report = analyze_events(_nest(1, "one", "S.a", "S.b")
                                + _nest(5, "two", "S.a", "S.b"))
        assert report.ok and report.lock_cycles == []
        assert set(report.lock_order) == {("S.a", "S.b")}
        assert report.lock_order[("S.a", "S.b")].seq == 2  # first witness

    def test_one_thread_inverting_its_own_order_is_a_cycle(self):
        # never a deadlock in this run, one as soon as two threads do it
        report = analyze_events(_nest(1, "t", "S.a", "S.b")
                                + _nest(5, "t", "S.b", "S.a"))
        assert len(report.lock_cycles) == 1

    def test_three_lock_cycle(self):
        report = analyze_events(_nest(1, "f", "S.a", "S.b")
                                + _nest(5, "g", "S.b", "S.c")
                                + _nest(9, "h", "S.c", "S.a"))
        [cycle] = report.lock_cycles
        assert cycle.locks == ("S.a", "S.b", "S.c")
        assert len(cycle.witnesses) == 3

    def test_cycle_through_a_called_method(self, tsan):
        # one() holds a and calls helper(), which takes b; two() nests
        # b -> a directly.  A run sees through calls for free.
        class S:
            def __init__(self):
                self.a = make_lock("S.a")
                self.b = make_lock("S.b")

            def helper(self):
                with self.b:
                    pass

            def one(self):
                with self.a:
                    self.helper()

            def two(self):
                with self.b:
                    with self.a:
                        pass

        s = S()
        _in_turn(s.one, s.two)
        [cycle] = analyze().lock_cycles
        assert cycle.locks == ("S.a", "S.b")

    def test_dataclass_condition_field_is_a_lock(self, tsan):
        @dataclass
        class Job:
            cond: object = field(
                default_factory=lambda: make_condition(name="Job.cond"))

        lk, job = make_lock("S.lk"), Job()

        def one():
            with lk:
                with job.cond:
                    pass

        def two():
            with job.cond:
                with lk:
                    pass

        _in_turn(one, two)
        [cycle] = analyze().lock_cycles
        assert cycle.locks == ("Job.cond", "S.lk")

    def test_same_attribute_on_two_classes_is_two_locks(self, tsan):
        # A._lock and B._lock are different locks: B's inside A's here
        # and, elsewhere, each alone is not a cycle — the names carry
        # the class, so nothing is merged.
        a, b = make_lock("A._lock"), make_lock("B._lock")

        def f():
            with a:
                with b:
                    pass

        def g():
            with b:
                pass
            with a:
                pass

        _in_turn(f, g)
        report = analyze()
        assert report.ok
        assert set(report.lock_order) == {("A._lock", "B._lock")}

    def test_reentry_and_wait_reacquire_add_no_self_edge(self, tsan):
        lock = make_rlock("S.lock")
        cond = make_condition(lock, name="S.drained")
        with lock:
            with lock:
                pass
            with cond:
                cond.wait(0.01)
        report = analyze()
        assert report.lock_order == {} and report.ok


class TestReportRendering:
    def test_race_report_carries_both_stacks_and_locks(self):
        report = analyze_events([
            _access(1, "thread-a", "r", write=True, held=("La",),
                    task="task-1"),
            _access(2, "thread-b", "r", write=True, held=("Lb",)),
        ])
        text = report.races[0].describe()
        assert "thread-a" in text and "thread-b" in text
        assert "La" in text and "Lb" in text
        assert "fake.py:1" in text and "fake.py:2" in text
        assert "task-1" in text

    def test_summary_counts(self):
        report = analyze_events([
            _access(1, "a", "r", write=True),
            _access(2, "b", "r", write=True),
        ])
        summary = report.summary()
        assert summary["races"] == 1
        assert summary["lock_cycles"] == 0
        assert summary["accesses"] == 2
        assert summary["threads"] == 2
        assert summary["ok"] is False
