"""Unit tests of the hybrid race detector over synthetic event streams."""

from __future__ import annotations

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
        assert summary["accesses"] == 2
        assert summary["threads"] == 2
        assert summary["ok"] is False
