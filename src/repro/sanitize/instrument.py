"""Sanitizer-aware drop-in factories for threading/queue primitives.

The threaded backend, the rank runtime, the campaign engine and the
daemon — everything under ``repro/`` — construct their locks,
conditions, events and queues through these factories instead of
calling ``threading.Lock()`` / ``queue.Queue()`` directly
(the ``sanitizer-factory`` lint rule enforces it).  The contract:

* **sanitizer off** (``REPRO_TSAN`` unset, the default) the factory
  returns the *raw* stdlib primitive — not a wrapper with pass-through
  methods, the actual ``threading.Lock`` object — so steady-state cost
  is exactly zero: the only overhead is one extra function call at
  construction time;
* **sanitizer on** (``REPRO_TSAN=1``) the factory returns an
  instrumented wrapper that records every operation into the global
  :class:`~repro.sanitize.events.EventLog` and visits the schedule
  explorer's preemption hook, while delegating the real synchronisation
  to the underlying stdlib primitive (semantics are untouched — the
  sanitizer observes, it never synchronises differently).

Queue wrappers additionally tag each item with the ``put`` event's
sequence number so the detector pairs every ``get`` with the exact
``put`` that produced its item, even with concurrent producers.
"""

from __future__ import annotations

import itertools
import os
import queue
import threading
from typing import Callable, Optional, Tuple

from repro.sanitize.events import (EventLog, ThreadLockState, OP_ACCESS,
                                   OP_ACQUIRE, OP_GET, OP_NOTIFY, OP_PUT,
                                   OP_RELEASE, OP_SET, OP_WAIT_EVENT)

#: Enable switch (documented in the README's ``REPRO_*`` table).
TSAN_ENV = "REPRO_TSAN"
#: Seed for the schedule explorer (CLI ``--seed`` overrides).
SANITIZE_SEED_ENV = "REPRO_SANITIZE_SEED"

#: Programmatic override: tests and the explorer flip this instead of
#: mutating ``os.environ`` (None = follow the environment variable).
_FORCED: Optional[bool] = None

#: The process-global event log instrumented primitives record into.
LOG = EventLog()

#: Preemption hook the schedule explorer installs; called at every
#: instrumented operation when the sanitizer is on.
_PREEMPT_HOOK: Optional[Callable[[str, str, str], None]] = None

_LOCAL = threading.local()
_NAME_COUNTER = itertools.count(1)


def sanitizer_enabled() -> bool:
    """True when instrumentation is requested (env knob or override)."""
    if _FORCED is not None:
        return _FORCED
    return os.environ.get(TSAN_ENV, "").strip().lower() not in (
        "", "0", "false", "no")


class enabled:
    """Context manager forcing the sanitizer on/off for a scope (tests,
    the explorer).  Nestable; restores the previous override on exit."""

    def __init__(self, on: bool = True) -> None:
        self.on = bool(on)
        self._previous: Optional[bool] = None

    def __enter__(self) -> "enabled":
        global _FORCED
        self._previous = _FORCED
        _FORCED = self.on
        return self

    def __exit__(self, *exc) -> None:
        global _FORCED
        _FORCED = self._previous


def set_preemption_hook(
        hook: Optional[Callable[[str, str, str], None]]) -> None:
    """Install (or clear, with ``None``) the explorer's preemption hook.

    The hook receives ``(thread_name, op, obj_name)`` before every
    instrumented operation records its event.
    """
    global _PREEMPT_HOOK
    _PREEMPT_HOOK = hook


def reset() -> None:
    """Clear the event log (between explorer schedules / tests)."""
    LOG.clear()


def _lock_state() -> ThreadLockState:
    state = getattr(_LOCAL, "locks", None)
    if state is None:
        state = _LOCAL.locks = ThreadLockState()
    return state


def _thread_name() -> str:
    return threading.current_thread().name


def _visit(op: str, obj: str) -> None:
    hook = _PREEMPT_HOOK
    if hook is not None:
        hook(_thread_name(), op, obj)


def _auto_name(kind: str, name: Optional[str]) -> str:
    if name:
        return name
    return f"{kind}#{next(_NAME_COUNTER)}"


# ----------------------------------------------------------------------
# access bridging (Task.reads / Task.writes -> detector accesses)
# ----------------------------------------------------------------------
def record_access(resource: str, *, write: bool,
                  task: Optional[str] = None) -> None:
    """Record one memory access on a declared resource.

    The threaded backend calls this for every resource a task declares,
    from the worker thread that really executed the task, so the
    detector sees the *dynamic* side of the same annotations
    ``verify_graph`` checks structurally.  No-op when the sanitizer is
    off.
    """
    if not sanitizer_enabled():
        return
    _visit(OP_ACCESS, resource)
    LOG.append(_thread_name(), OP_ACCESS, resource, write=write,
               held=_lock_state().snapshot(), with_stack=True, task=task)


def record_task_accesses(reads, writes, task: Optional[str] = None) -> None:
    """Bridge one task's declared resource sets into access events."""
    if not sanitizer_enabled():
        return
    for resource in sorted(reads):
        record_access(resource, write=False, task=task)
    for resource in sorted(writes):
        record_access(resource, write=True, task=task)


# ----------------------------------------------------------------------
# instrumented wrappers
# ----------------------------------------------------------------------
class TSanLock:
    """Instrumented ``threading.Lock`` (or ``RLock``) wrapper."""

    def __init__(self, name: str, reentrant: bool = False) -> None:
        self.name = name
        self.reentrant = reentrant
        self.raw = threading.RLock() if reentrant else threading.Lock()

    # -- lock protocol --------------------------------------------------
    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        _visit(OP_ACQUIRE, self.name)
        got = self.raw.acquire(blocking, timeout)  # repro-lint: allow[lock-discipline] this IS the lock protocol; pairing is the caller's contract, mirrored from the raw primitive
        if got:
            _lock_state().push(self.name)
            LOG.append(_thread_name(), OP_ACQUIRE, self.name,
                       held=_lock_state().snapshot())
        return got

    def release(self) -> None:
        LOG.append(_thread_name(), OP_RELEASE, self.name,
                   held=_lock_state().snapshot())
        _lock_state().pop(self.name)
        self.raw.release()

    def locked(self) -> bool:
        return self.raw.locked()

    def __enter__(self) -> bool:
        return self.acquire()  # repro-lint: allow[lock-discipline] __enter__/__exit__ are the with-statement pairing itself

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "TSanRLock" if self.reentrant else "TSanLock"
        return f"<{kind} {self.name!r}>"


class TSanCondition:
    """Instrumented ``threading.Condition``.

    Built on the *raw* lock of a (possibly shared) :class:`TSanLock`, so
    several conditions over one lock still serialise for real; the
    wrapper records acquire/release/wait/notify under the lock's name,
    and models ``wait()`` as release -> (sleep) -> acquire, which is
    exactly the happens-before the stdlib semantics give.
    """

    def __init__(self, lock: Optional[TSanLock] = None,
                 name: Optional[str] = None) -> None:
        self.lock = lock if lock is not None else TSanLock(
            _auto_name("condition-lock", name), reentrant=True)
        self.name = name or self.lock.name
        self.raw = threading.Condition(self.lock.raw)

    # -- lock protocol (delegates to the instrumented lock) -------------
    def acquire(self, *args) -> bool:
        return self.lock.acquire(*args)  # repro-lint: allow[lock-discipline] condition lock protocol delegation; pairing is the caller's contract

    def release(self) -> None:
        self.lock.release()

    def __enter__(self) -> bool:
        return self.lock.acquire()  # repro-lint: allow[lock-discipline] __enter__/__exit__ are the with-statement pairing itself

    def __exit__(self, *exc) -> None:
        self.lock.release()

    # -- condition protocol --------------------------------------------
    def wait(self, timeout: Optional[float] = None) -> bool:
        # wait() atomically releases the lock and re-acquires it before
        # returning; record both halves so the detector sees the same
        # happens-before edges the real primitive creates — under the
        # *lock's* name: it is the lock that leaves and re-enters the
        # thread's lockset, whatever the condition is called.
        _visit("wait", self.name)
        lock = self.lock.name
        LOG.append(_thread_name(), OP_RELEASE, lock,
                   held=_lock_state().snapshot())
        _lock_state().pop(lock)
        try:
            return self.raw.wait(timeout)
        finally:
            _lock_state().push(lock)
            LOG.append(_thread_name(), OP_ACQUIRE, lock,
                       held=_lock_state().snapshot())

    def wait_for(self, predicate, timeout: Optional[float] = None):
        result = predicate()
        if result:
            return result
        endtime = None
        waittime = timeout
        while not result:
            if waittime is not None:
                if endtime is None:
                    import time
                    endtime = time.monotonic() + waittime  # repro-lint: allow[wall-clock] stdlib Condition.wait_for deadline semantics, never fingerprinted
                else:
                    import time
                    waittime = endtime - time.monotonic()  # repro-lint: allow[wall-clock] stdlib Condition.wait_for deadline semantics, never fingerprinted
                    if waittime <= 0:
                        break
            self.wait(waittime)
            result = predicate()
        return result

    def notify(self, n: int = 1) -> None:
        LOG.append(_thread_name(), OP_NOTIFY, self.name,
                   held=_lock_state().snapshot())
        self.raw.notify(n)

    def notify_all(self) -> None:
        LOG.append(_thread_name(), OP_NOTIFY, self.name,
                   held=_lock_state().snapshot())
        self.raw.notify_all()


class TSanEvent:
    """Instrumented ``threading.Event``: ``set`` publishes the setter's
    history to every thread whose ``wait`` observes it."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.raw = threading.Event()

    def set(self) -> None:
        _visit(OP_SET, self.name)
        LOG.append(_thread_name(), OP_SET, self.name,
                   held=_lock_state().snapshot())
        self.raw.set()

    def clear(self) -> None:
        self.raw.clear()

    def is_set(self) -> bool:
        return self.raw.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        _visit(OP_WAIT_EVENT, self.name)
        observed = self.raw.wait(timeout)
        if observed:
            LOG.append(_thread_name(), OP_WAIT_EVENT, self.name,
                       held=_lock_state().snapshot())
        return observed


class _Tagged:
    """Queue payload envelope carrying the producing put's token."""

    __slots__ = ("token", "item")

    def __init__(self, token: int, item) -> None:
        self.token = token
        self.item = item


class TSanQueue:
    """Instrumented ``queue.Queue``; put -> get is a happens-before edge
    paired exactly by token (robust to concurrent producers)."""

    def __init__(self, name: str, maxsize: int = 0) -> None:
        self.name = name
        self.raw = queue.Queue(maxsize)

    def put(self, item, block: bool = True,
            timeout: Optional[float] = None) -> None:
        _visit(OP_PUT, self.name)
        token = LOG.append(_thread_name(), OP_PUT, self.name,
                           held=_lock_state().snapshot())
        self.raw.put(_Tagged(token, item), block, timeout)

    def put_nowait(self, item) -> None:
        self.put(item, block=False)

    def get(self, block: bool = True, timeout: Optional[float] = None):
        _visit(OP_GET, self.name)
        tagged = self.raw.get(block, timeout)   # raises queue.Empty as-is
        LOG.append(_thread_name(), OP_GET, self.name, token=tagged.token,
                   held=_lock_state().snapshot())
        return tagged.item

    def get_nowait(self):
        return self.get(block=False)

    def qsize(self) -> int:
        return self.raw.qsize()

    def empty(self) -> bool:
        return self.raw.empty()

    def full(self) -> bool:
        return self.raw.full()

    def task_done(self) -> None:
        self.raw.task_done()

    def join(self) -> None:
        self.raw.join()


# ----------------------------------------------------------------------
# factories (the only construction path the lint rule accepts)
# ----------------------------------------------------------------------
def make_lock(name: Optional[str] = None):
    """A mutex: raw ``threading.Lock`` off, :class:`TSanLock` on."""
    if not sanitizer_enabled():
        return threading.Lock()
    return TSanLock(_auto_name("lock", name))


def make_rlock(name: Optional[str] = None):
    """A reentrant mutex: raw ``threading.RLock`` off, wrapper on."""
    if not sanitizer_enabled():
        return threading.RLock()
    return TSanLock(_auto_name("rlock", name), reentrant=True)


def make_condition(lock=None, name: Optional[str] = None):
    """A condition variable, optionally over an existing factory-made
    lock (matching ``threading.Condition(lock)``)."""
    if not sanitizer_enabled():
        raw = getattr(lock, "raw", lock)
        return threading.Condition(raw)
    if lock is None or not isinstance(lock, TSanLock):
        # Off-mode locks may leak in when the sanitizer was toggled
        # between constructions; fall back to a fresh instrumented lock.
        return TSanCondition(name=_auto_name("condition", name))
    return TSanCondition(lock, name=name or lock.name)


def make_event(name: Optional[str] = None):
    """A one-shot flag: raw ``threading.Event`` off, wrapper on."""
    if not sanitizer_enabled():
        return threading.Event()
    return TSanEvent(_auto_name("event", name))


def make_queue(name: Optional[str] = None, maxsize: int = 0):
    """A FIFO channel: raw ``queue.Queue`` off, wrapper on."""
    if not sanitizer_enabled():
        return queue.Queue(maxsize)
    return TSanQueue(_auto_name("queue", name), maxsize)


def held_locks() -> Tuple[str, ...]:
    """The calling thread's current instrumented lockset (tests)."""
    return _lock_state().snapshot()
