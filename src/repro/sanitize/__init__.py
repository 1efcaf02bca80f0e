"""Concurrency sanitizer runtime: hybrid race detection, lock-order
analysis and seeded schedule exploration for every thread the library
starts — the threaded backend, the rank runtime, the campaign engine's
pool and the daemon.

Three layers (the dynamic complement of ``repro.lint`` and
``verify_graph``):

* :mod:`repro.sanitize.instrument` — drop-in factories for
  ``threading.Lock``/``RLock``/``Condition``/``Event`` and
  ``queue.Queue``.  Off (``REPRO_TSAN`` unset) they return the raw
  stdlib primitives at zero steady-state cost; on, every operation is
  recorded into an event log, and task ``reads``/``writes`` annotations
  are bridged in as memory accesses.
* :mod:`repro.sanitize.detector` — vector-clock happens-before tracking
  with an Eraser-style lockset fallback over the recorded events; each
  surviving candidate race is reported with both thread stacks and the
  locks held.  The same replay builds the lock-order graph from the
  ``held`` set of every acquire and reports its cycles (potential
  deadlocks) — the repo's only lock-order analysis.  Under
  ``REPRO_TSAN=1`` the test suite ends every test in this verdict
  (``tests/conftest.py``).
* :mod:`repro.sanitize.explore` — ``python -m repro.sanitize explore``:
  PCT-style seeded schedule perturbation; any interleaving that breaks
  bit-identity or trips the detector is replayable from its seed alone.
  ``python -m repro.sanitize canary`` proves the detector can fire.
"""

from repro.sanitize.detector import (AccessRecord, LockCycle, RaceReport,
                                     SanitizerReport, analyze,
                                     analyze_events)
from repro.sanitize.events import Event, EventLog
from repro.sanitize.instrument import (LOG, SANITIZE_SEED_ENV, TSAN_ENV,
                                       enabled, held_locks, make_condition,
                                       make_event, make_lock, make_queue,
                                       make_rlock, record_access,
                                       record_task_accesses, reset,
                                       sanitizer_enabled,
                                       set_preemption_hook)

__all__ = [
    "AccessRecord",
    "Event",
    "EventLog",
    "LOG",
    "LockCycle",
    "RaceReport",
    "SANITIZE_SEED_ENV",
    "SanitizerReport",
    "TSAN_ENV",
    "analyze",
    "analyze_events",
    "enabled",
    "held_locks",
    "make_condition",
    "make_event",
    "make_lock",
    "make_queue",
    "make_rlock",
    "record_access",
    "record_task_accesses",
    "reset",
    "sanitizer_enabled",
    "set_preemption_hook",
]
