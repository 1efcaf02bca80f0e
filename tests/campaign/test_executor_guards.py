"""Guards on the campaign executors: worker caps, validation, empty input."""

import multiprocessing
import os
import time

import pytest

from repro.campaign.executors import (EXECUTOR_NAMES, ProcessPoolExecutor,
                                      SerialExecutor, make_executor)
from repro.config import (MAX_WORKERS_ENV, max_workers_override,
                          resolve_worker_count)


def double(x):
    return 2 * x


class TestWorkerResolution:
    def test_default_is_at_least_one(self):
        assert resolve_worker_count() >= 1

    def test_env_override_caps_default(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "2")
        assert max_workers_override() == 2
        assert resolve_worker_count() <= 2

    def test_env_override_caps_explicit_requests(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "3")
        assert ProcessPoolExecutor(max_workers=16).max_workers == 3

    def test_blank_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "  ")
        assert max_workers_override() is None

    @pytest.mark.parametrize("bad", ["zero?", "-1", "0"])
    def test_invalid_env_values_raise(self, monkeypatch, bad):
        monkeypatch.setenv(MAX_WORKERS_ENV, bad)
        with pytest.raises(ValueError, match=MAX_WORKERS_ENV):
            resolve_worker_count()

    @pytest.mark.parametrize("bad", [0, -4])
    def test_non_positive_requests_raise(self, bad):
        with pytest.raises(ValueError, match="must be positive"):
            resolve_worker_count(bad)
        with pytest.raises(ValueError, match="must be positive"):
            ProcessPoolExecutor(max_workers=bad)


class TestRunGuards:
    @pytest.mark.parametrize("executor", [
        SerialExecutor(),
        ProcessPoolExecutor(max_workers=2),
    ])
    def test_empty_items_yield_nothing(self, executor):
        assert list(executor.run(double, [])) == []

    def test_single_item_short_circuits_to_serial(self):
        # A locally-unpicklable closure proves no process pool was used.
        bump = []
        results = list(ProcessPoolExecutor(max_workers=4).run(
            lambda x: bump.append(x) or x + 1, [41]))
        assert results == [42] and bump == [41]

    def test_the_registry_is_serial_and_process(self):
        assert EXECUTOR_NAMES == ("serial", "process")
        for gone in ("chunked", "pool", "process-pool", "chunk", "batch"):
            with pytest.raises(ValueError, match="unknown executor"):
                make_executor(gone)


def pid_of(_item):
    return os.getpid()


def slow_or_fail(item):
    """Item 0 fails at once; the others are slow enough to still be
    queued behind the two workers when it does."""
    if item == 0:
        raise ValueError("trial 0 failed")
    time.sleep(0.2)
    return item


class TestPersistentPool:
    """The opened form the campaign daemon holds for its lifetime."""

    def test_an_opened_executor_serves_every_run_from_the_same_children(self):
        with ProcessPoolExecutor(max_workers=2) as executor:
            pids = executor.pids()
            assert len(pids) == 2 and os.getpid() not in pids
            first = set(executor.run(pid_of, range(8)))
            second = set(executor.run(pid_of, [0]))  # no serial short cut
            assert first <= set(pids) and second <= set(pids)
            assert executor.pids() == pids
            assert executor.submit(double, 21).result(timeout=60) == 42
        assert executor.pids() == []
        alive = {child.pid for child in multiprocessing.active_children()}
        assert not alive & set(pids)

    def test_close_twice_is_a_no_op_and_submit_after_close_raises(self):
        executor = ProcessPoolExecutor(max_workers=2).open()
        executor.close()
        executor.close()
        with pytest.raises(RuntimeError, match="not open"):
            executor.submit(double, 1)
        ProcessPoolExecutor(max_workers=2).close()  # never opened

    def test_open_twice_raises(self):
        with ProcessPoolExecutor(max_workers=2) as executor:
            with pytest.raises(RuntimeError, match="already open"):
                executor.open()

    def test_an_unopened_run_opens_and_closes_its_own_pool(self):
        executor = ProcessPoolExecutor(max_workers=2)
        before = {child.pid for child in multiprocessing.active_children()}
        pids = set(executor.run(pid_of, range(6)))
        assert pids and os.getpid() not in pids
        assert executor.pids() == []
        after = {child.pid for child in multiprocessing.active_children()}
        assert after <= before
        with pytest.raises(RuntimeError, match="not open"):
            executor.submit(double, 1)

    @pytest.mark.parametrize("opened", [False, True])
    def test_a_failing_trial_cancels_what_has_not_started(self, opened):
        executor = ProcessPoolExecutor(max_workers=2)
        if opened:
            executor.open()
        try:
            started = time.monotonic()
            with pytest.raises(ValueError, match="trial 0 failed"):
                list(executor.run(slow_or_fail, list(range(40))))
            # 39 slow items on two workers would take ~4 s if drained.
            assert time.monotonic() - started < 2.0
            if opened:  # and the pool is still good for the next run
                assert list(executor.run(double, [4])) == [8]
        finally:
            executor.close()
