"""Factory contract: raw primitives off, recording wrappers on."""

from __future__ import annotations

import queue
import threading

from repro.sanitize import instrument
from repro.sanitize import __main__ as sanitize_cli
from repro.sanitize import detector
from repro.sanitize.canary import (run_counter_canary, run_lock_order_canary,
                                   run_locked_control)
from repro.sanitize.instrument import (TSAN_ENV, TSanCondition, TSanEvent,
                                       TSanLock, TSanQueue, enabled,
                                       held_locks, make_condition,
                                       make_event, make_lock, make_queue,
                                       make_rlock, sanitizer_enabled)


class TestOffMode:
    """REPRO_TSAN unset: the factories hand back the raw stdlib objects
    (zero steady-state overhead — no wrapper indirection at all)."""

    def test_factories_return_raw_primitives(self, monkeypatch):
        monkeypatch.delenv(TSAN_ENV, raising=False)
        with enabled(False):
            assert type(make_lock("x")) is type(threading.Lock())
            assert type(make_rlock("x")) is type(threading.RLock())
            assert isinstance(make_condition(name="x"), threading.Condition)
            assert isinstance(make_event("x"), threading.Event)
            assert type(make_queue("x")) is queue.SimpleQueue

    def test_condition_over_raw_lock(self):
        with enabled(False):
            lock = make_rlock("x")
            cond = make_condition(lock, name="y")
            assert cond._lock is lock  # threading.Condition internals

    def test_no_events_recorded_when_off(self, monkeypatch):
        monkeypatch.delenv(TSAN_ENV, raising=False)
        with enabled(False):
            instrument.reset()
            lock = make_lock("x")
            with lock:
                pass
            q = make_queue("q")
            q.put(1)
            assert q.get() == 1
            assert len(instrument.LOG) == 0
            instrument.record_access("r", write=True)
            assert len(instrument.LOG) == 0

    def test_env_values_parse(self, monkeypatch):
        for raw, expect in (("", False), ("0", False), ("false", False),
                            ("no", False), ("1", True), ("yes", True),
                            ("on", True)):
            monkeypatch.setenv(TSAN_ENV, raw)
            assert sanitizer_enabled() is expect, raw
        monkeypatch.delenv(TSAN_ENV)
        assert sanitizer_enabled() is False


class TestOnMode:
    def test_factories_return_wrappers(self):
        with enabled(True):
            assert isinstance(make_lock("x"), TSanLock)
            assert isinstance(make_rlock("x"), TSanLock)
            assert isinstance(make_condition(name="x"), TSanCondition)
            assert isinstance(make_event("x"), TSanEvent)
            assert isinstance(make_queue("x"), TSanQueue)

    def test_both_queue_modes_expose_one_surface(self):
        def public(obj):
            return {name for name in dir(obj) if not name.startswith("_")}
        with enabled(False):
            raw = make_queue("x")
        with enabled(True):
            wrapped = make_queue("x")
        # The wrapper adds only its own bookkeeping attributes.
        assert public(wrapped) - {"name", "raw"} == public(raw)

    def test_enabled_context_nests_and_restores(self, monkeypatch):
        # Its own baseline: the sanitizer CI job runs with REPRO_TSAN=1.
        monkeypatch.delenv(TSAN_ENV, raising=False)
        assert not sanitizer_enabled()
        with enabled(True):
            assert sanitizer_enabled()
            with enabled(False):
                assert not sanitizer_enabled()
            assert sanitizer_enabled()
        assert not sanitizer_enabled()
        monkeypatch.setenv(TSAN_ENV, "1")
        with enabled(False):
            assert not sanitizer_enabled()
        assert sanitizer_enabled()

    def test_lock_records_acquire_release_and_lockset(self):
        with enabled(True):
            instrument.reset()
            lock = make_lock("my-lock")
            with lock:
                assert "my-lock" in held_locks()
            assert "my-lock" not in held_locks()
            ops = [e.op for e in instrument.LOG.events()]
            assert ops == ["acquire", "release"]
            instrument.reset()

    def test_rlock_reentrancy_tracked(self):
        with enabled(True):
            instrument.reset()
            lock = make_rlock("re")
            with lock:
                with lock:
                    assert held_locks().count("re") == 1  # set semantics
                assert "re" in held_locks()   # still held after inner exit
            assert "re" not in held_locks()
            instrument.reset()

    def test_queue_tags_items_with_put_token(self):
        with enabled(True):
            instrument.reset()
            q = make_queue("chan")
            q.put("payload")
            assert q.get() == "payload"
            put, get = instrument.LOG.events()
            assert put.op == "put" and get.op == "get"
            assert get.token == put.seq
            instrument.reset()

    def test_queue_raises_empty(self):
        with enabled(True):
            instrument.reset()
            q = make_queue("chan")
            try:
                q.get_nowait()
            except queue.Empty:
                pass
            else:  # pragma: no cover - the point of the test
                raise AssertionError("expected queue.Empty")
            instrument.reset()

    def test_record_access_carries_stack_and_lockset(self):
        with enabled(True):
            instrument.reset()
            lock = make_lock("guard")
            with lock:
                instrument.record_access("res", write=True, task="t1")
            [_, access, _] = instrument.LOG.events()
            assert access.op == "access"
            assert access.write and access.obj == "res"
            assert access.held == ("guard",)
            assert access.task == "t1"
            assert access.stack  # non-empty, points at this test
            instrument.reset()

    def test_condition_wait_models_release_acquire(self):
        with enabled(True):
            instrument.reset()
            cond = make_condition(name="cv")
            done = []

            def waiter():
                with cond:
                    while not done:
                        cond.wait(timeout=1.0)

            t = threading.Thread(target=waiter, name="cv-waiter")
            t.start()
            with cond:
                done.append(True)
                cond.notify_all()
            t.join(timeout=5.0)
            assert not t.is_alive()
            ops = {e.op for e in instrument.LOG.events()}
            assert {"acquire", "release", "notify"} <= ops
            instrument.reset()

    def test_condition_wait_books_the_lock_not_the_condition(self):
        # The lockset holds the *lock's* name: a wait() that pops and
        # pushes the condition's leaves a phantom "C" held for ever,
        # which would let the lockset fallback excuse a real race.
        with enabled(True):
            instrument.reset()
            cond = make_condition(make_rlock("L"), name="C")
            with cond:
                assert held_locks() == ("L",)
                cond.wait(0.01)
                assert held_locks() == ("L",)
            assert held_locks() == ()
            events = [(e.op, e.obj) for e in instrument.LOG.events()]
            assert events == [("acquire", "L"), ("release", "L"),
                              ("acquire", "L"), ("release", "L")]
            instrument.reset()


class TestCanary:
    """The deliberately unsynchronised counter and the inverted lock
    order the detector must flag — CI's proof the sanitizer is not a
    silent no-op."""

    def test_unsynchronised_counter_is_flagged(self):
        report = run_counter_canary(threads=4, increments=10)
        assert report.races, "detector missed the seeded race canary"
        assert any(r.resource == "canary:counter" for r in report.races)

    def test_locked_control_is_clean(self):
        report = run_locked_control(threads=4, increments=10)
        assert report.ok, report.render()

    def test_inverted_lock_order_is_flagged_without_deadlocking(self):
        report = run_lock_order_canary(inverted=True)
        [cycle] = report.lock_cycles
        assert cycle.locks == ("canary-lock-A", "canary-lock-B")
        assert not report.races and not report.ok

    def test_one_lock_order_is_clean(self):
        report = run_lock_order_canary(inverted=False)
        assert report.ok, report.render()
        assert set(report.lock_order) == {("canary-lock-A", "canary-lock-B")}

    def test_canary_goes_red_when_the_lock_order_pass_is_blinded(
            self, monkeypatch, capsys):
        assert sanitize_cli.main(["canary"]) == 0
        assert "lock-order analysis alive" in capsys.readouterr().out
        monkeypatch.setattr(detector, "_order_edges", lambda event: [])
        assert sanitize_cli.main(["canary"]) == 1
        assert "canary FAILED" in capsys.readouterr().err
