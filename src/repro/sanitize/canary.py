"""The seeded canary: bugs the detector must always catch.

A sanitizer that silently stops seeing races is worse than none, so CI
runs these deliberately broken workloads and fails unless the detector
flags them.  Three halves:

* :func:`run_counter_canary` — the textbook bug: worker threads bump a
  shared counter with no lock.  Accesses are recorded against the
  declared resource ``canary:counter``; the threads synchronise only
  through their start/join (not instrumented on purpose), so every
  cross-thread pair is unordered *and* lockset-free -> a race.
* :func:`run_locked_control` — the same workload with a factory-made
  lock around the increment.  The detector must stay silent: the lock's
  release->acquire edges order every pair.  Running both proves the
  detector distinguishes, rather than flagging everything or nothing.
* :func:`run_lock_order_canary` — two threads nest two factory-made
  locks, one A -> B and the other B -> A, *one after the other* (the
  second starts when the first has finished), so the run can never
  deadlock yet records the cycle that could; with both threads nesting
  A -> B the detector must stay silent.
"""

from __future__ import annotations

import threading
from typing import List

from repro.sanitize import detector, instrument
from repro.sanitize.detector import SanitizerReport

CANARY_RESOURCE = "canary:counter"


class _Counter:
    """Deliberately racy shared state (read-modify-write, no lock)."""

    def __init__(self) -> None:
        self.value = 0


def run_counter_canary(threads: int = 4, increments: int = 25
                       ) -> SanitizerReport:
    """Run the unsynchronised counter; returns the detection report."""
    counter = _Counter()
    barrier = threading.Barrier(threads)

    def bump(worker: int) -> None:
        barrier.wait()        # maximise overlap; not a recorded sync op
        for _ in range(increments):
            instrument.record_access(CANARY_RESOURCE, write=True,
                                     task=f"canary-{worker}")
            counter.value += 1

    with instrument.enabled(True):
        instrument.reset()
        pool = [threading.Thread(target=bump, args=(i,),
                                 name=f"canary-worker-{i}")
                for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        report = detector.analyze()
        instrument.reset()
    return report


def run_locked_control(threads: int = 4, increments: int = 25
                       ) -> SanitizerReport:
    """Same workload, properly locked: the detector must stay silent."""
    counter = _Counter()
    barrier = threading.Barrier(threads)

    with instrument.enabled(True):
        instrument.reset()
        lock = instrument.make_lock("canary-lock")

        def bump(worker: int) -> None:
            barrier.wait()
            for _ in range(increments):
                with lock:
                    instrument.record_access(CANARY_RESOURCE, write=True,
                                             task=f"canary-{worker}")
                    counter.value += 1

        pool = [threading.Thread(target=bump, args=(i,),
                                 name=f"canary-worker-{i}")
                for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        report = detector.analyze()
        instrument.reset()
    return report


def run_lock_order_canary(inverted: bool = True) -> SanitizerReport:
    """Two threads nest locks A and B, the second in the opposite order
    when ``inverted`` — run back to back, so nothing can deadlock."""
    with instrument.enabled(True):
        instrument.reset()
        a = instrument.make_lock("canary-lock-A")
        b = instrument.make_lock("canary-lock-B")

        def nest(outer, inner) -> None:
            with outer:
                with inner:
                    pass

        for index, order in enumerate([(a, b), (b, a) if inverted else (a, b)]):
            worker = threading.Thread(target=nest, args=order,
                                      name=f"canary-worker-{index}")
            worker.start()
            worker.join()
        report = detector.analyze()
        instrument.reset()
    return report


def canary_verdict(threads: int = 4, increments: int = 25) -> List[str]:
    """Human-readable verdict lines; empty means the canary FAILED."""
    racy = run_counter_canary(threads, increments)
    quiet = run_locked_control(threads, increments)
    inverted = run_lock_order_canary(inverted=True)
    ordered = run_lock_order_canary(inverted=False)
    if not (racy.races and quiet.ok
            and inverted.lock_cycles and ordered.ok):
        return []
    return [f"canary: unsynchronised counter flagged "
            f"({len(racy.races)} race(s)) — detector alive",
            "canary: locked control clean — detector "
            "distinguishes locked from racy",
            "canary: A->B / B->A lock order flagged without a deadlock, "
            "A->B twice clean — lock-order analysis alive"]
