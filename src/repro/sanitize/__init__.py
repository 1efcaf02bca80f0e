"""Concurrency sanitizer runtime: hybrid race detection + seeded
schedule exploration for the threaded backend, the rank runtime and the
campaign-service worker pool.

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
  locks held.
* :mod:`repro.sanitize.explore` — ``python -m repro.sanitize explore``:
  PCT-style seeded schedule perturbation; any interleaving that breaks
  bit-identity or trips the detector is replayable from its seed alone.
"""

from repro.sanitize.detector import (AccessRecord, RaceReport,
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
