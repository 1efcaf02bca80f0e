"""``ProcessPoolExecutor.run(..., stop=event)``: winding a run down.

A run submits every item at once, so its ``stop`` cannot simply stop
submitting.  Once the event is set after a completion, what no child
holds yet is cancelled and never runs; what a child does hold — running,
or already in the pool's call queue — is still awaited and yielded
("cancelling stops dispatch, it does not abandon a future"); and a pool
that breaks on the way is reopened but its lost items are nobody's to
resubmit.  The items below leave a marker file when they run, so "ran"
is observed in the child, not inferred from what came back.
"""

import multiprocessing
import os
import threading
import time

from repro.campaign.executors import ProcessPoolExecutor


def mark(item):
    """``(directory, index, seconds, dies)``: leave ``ran-<index>``,
    sleep, then return the index — or exit hard."""
    directory, index, seconds, dies = item
    with open(os.path.join(directory, f"ran-{index}"), "a") as marker:
        marker.write("x")
    time.sleep(seconds)
    if dies:
        os._exit(1)
    return index


def mark_when(item):
    """``(directory, index, markers, dies)``: leave ``ran-<index>``, wait
    until every file named in ``markers`` exists in ``directory`` (a
    minute at most), then return the index — or exit hard."""
    directory, index, markers, dies = item
    with open(os.path.join(directory, f"ran-{index}"), "a") as marker:
        marker.write("x")
    deadline = time.monotonic() + 60.0
    while (time.monotonic() < deadline and not all(
            os.path.exists(os.path.join(directory, name))
            for name in markers)):
        time.sleep(0.01)
    if dies:
        os._exit(1)
    return index


def items_in(directory, seconds, dies=()):
    return [(str(directory), index, pause, index in dies)
            for index, pause in enumerate(seconds)]


def ran(directory):
    """Index -> how often the item ran."""
    return {int(name.split("-")[1]): os.path.getsize(directory / name)
            for name in os.listdir(directory) if name.startswith("ran-")}


def consume(executor, items, stop, stop_after=1, timeout=120, fn=mark,
            stopped=None):
    """Drive ``run(fn, ...)`` on a thread (a wind-down that hangs fails
    the test instead of the session); ``stop`` is set after
    ``stop_after`` results, and then the file ``stopped`` (if given)
    is created, for the children to see."""
    results, errors = [], []

    def drive():
        try:
            for result in executor.run(fn, items, stop=stop):
                results.append(result)
                if len(results) == stop_after:
                    stop.set()
                    if stopped is not None:
                        stopped.touch()
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    thread = threading.Thread(target=drive)
    thread.start()
    thread.join(timeout=timeout)
    assert not thread.is_alive(), "the wind-down never ended"
    assert not errors, errors
    return results


class TestStop:
    def test_unstarted_items_never_run_and_held_ones_are_yielded(self,
                                                                 tmp_path):
        items = items_in(tmp_path, [0.0] + [0.05] * 15)
        with ProcessPoolExecutor(max_workers=2) as executor:
            results = consume(executor, items, threading.Event())
            # what ran is what came back: nothing abandoned, nothing extra
            assert sorted(results) == sorted(ran(tmp_path))
            assert set(ran(tmp_path).values()) == {1}
            # the other child's item at least was held; most never started
            assert 1 < len(results) < len(items)
            # ... and the pool is whole for the next run
            assert executor.deaths == executor.resubmitted == 0
            again = items_in(tmp_path, [0.0] * 4)
            assert sorted(executor.run(mark, again)) == [0, 1, 2, 3]

    def test_a_stop_set_before_the_run_submits_nothing(self, tmp_path):
        stop = threading.Event()
        stop.set()
        items = items_in(tmp_path, [0.0] * 6)
        with ProcessPoolExecutor(max_workers=2) as executor:
            assert list(executor.run(mark, items, stop=stop)) == []
        assert ran(tmp_path) == {}
        # an executor that runs serially honours it too
        assert list(ProcessPoolExecutor(max_workers=1).run(
            mark, items, stop=stop)) == []
        assert ran(tmp_path) == {}

    def test_an_unset_stop_changes_nothing(self, tmp_path):
        items = items_in(tmp_path, [0.0] * 9)
        with ProcessPoolExecutor(max_workers=2) as executor:
            results = list(executor.run(mark, items, stop=threading.Event()))
        assert sorted(results) == list(range(9))

    def test_a_break_during_the_wind_down_is_not_resubmitted(self, tmp_path):
        """Item 1 is running when the stop arrives and takes its child
        down once the stop is set and the other child has started item
        2, which it holds until the broken pool takes it down — so the
        cancelled futures are still in the stdlib pool when it breaks,
        which on CPython 3.11 kills the pool's manager thread unless
        they have been told to ignore the news (``executors._cancel``):
        the run would end, but with a child of the broken pool left
        alive.  Marker files order the events, not the host's speed."""
        markers = [(), ("stopped", "ran-2"), ("never",)] + [()] * 13
        items = [(str(tmp_path), index, waits, index == 1)
                 for index, waits in enumerate(markers)]
        with ProcessPoolExecutor(max_workers=2) as executor:
            before = executor.pids()
            results = consume(executor, items, threading.Event(),
                              fn=mark_when, stopped=tmp_path / "stopped")
            assert 0 in results and 1 not in results
            counts = ran(tmp_path)
            assert counts[1] == 1 and set(counts.values()) == {1}
            assert len(counts) < len(items)
            # reopened once, whole again, and nothing was resubmitted
            assert (executor.deaths, executor.resubmitted) == (1, 0)
            after = executor.pids()
            assert len(after) == 2 and not set(after) & set(before)
            alive = {child.pid for child in multiprocessing.active_children()}
            assert not alive & set(before)
        assert executor.pids() == []
