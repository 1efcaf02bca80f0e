"""Event model of the concurrency sanitizer.

Every instrumented synchronisation operation (lock acquire/release,
queue put/get, event set/wait, condition wait/notify) and every bridged
memory access (a task's declared ``reads``/``writes``, see
:func:`repro.sanitize.instrument.record_access`) appends one
:class:`Event` to the process-global :class:`EventLog`.  The log is the
single source the offline detector replays: its append order *is* the
observed interleaving, so the detector's happens-before construction
follows exactly what the run did.

Recording is deliberately cheap — a tuple-ish dataclass append under one
raw lock — because it sits inside every lock acquire of an instrumented
run.  Stacks are captured only for *access* events (the ones a race
report must explain); sync events carry just their location-free
identity.
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Synchronisation event kinds understood by the detector.
OP_ACQUIRE = "acquire"
OP_RELEASE = "release"
OP_PUT = "put"
OP_GET = "get"
OP_SET = "set"
OP_WAIT_EVENT = "wait-event"
OP_NOTIFY = "notify"
OP_ACCESS = "access"

#: Innermost caller frames kept on an access event.
STACK_FRAMES = 6


@dataclass(frozen=True)
class Event:
    """One recorded operation of one thread.

    ``obj`` names the synchronisation object (for sync ops) or the
    declared resource (for accesses).  ``token`` pairs a queue ``get``
    with the exact ``put`` that produced its item (allocated by the
    queue wrapper, not inferred positionally, so concurrent producers
    can never be mispaired).  ``held`` is the lockset snapshot of the
    recording thread, and ``stack`` is captured for accesses only.
    """

    seq: int
    thread: str
    op: str
    obj: str
    write: bool = False
    token: Optional[int] = None
    held: Tuple[str, ...] = ()
    stack: Tuple[str, ...] = ()
    task: Optional[str] = None


class EventLog:
    """Thread-safe append-only log of sanitizer events."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: List[Event] = []
        self._seq = 0

    def append(self, thread: str, op: str, obj: str, *,
               write: bool = False, token: Optional[int] = None,
               held: Tuple[str, ...] = (), with_stack: bool = False,
               task: Optional[str] = None) -> int:
        """Record one event; returns its sequence number (the token a
        queue put hands to the matching get)."""
        stack: Tuple[str, ...] = ()
        if with_stack:
            # Skip the two innermost frames (this method + the wrapper).
            frames = traceback.extract_stack(limit=STACK_FRAMES + 2)[:-2]
            stack = tuple(f"{f.filename}:{f.lineno} in {f.name}"
                          for f in frames)
        with self._lock:
            self._seq += 1
            event = Event(seq=self._seq, thread=thread, op=op, obj=obj,
                          write=write, token=token, held=held, stack=stack,
                          task=task)
            self._events.append(event)
            return self._seq

    def events(self) -> List[Event]:
        """Snapshot of all events in recorded (interleaving) order."""
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._seq = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def counts(self) -> Dict[str, int]:
        """Events per op kind (diagnostics / tests)."""
        out: Dict[str, int] = {}
        for event in self.events():
            out[event.op] = out.get(event.op, 0) + 1
        return out


@dataclass
class ThreadLockState:
    """Per-thread lockset bookkeeping (reentrant-aware)."""

    held: Dict[str, int] = field(default_factory=dict)

    def push(self, name: str) -> None:
        self.held[name] = self.held.get(name, 0) + 1

    def pop(self, name: str) -> None:
        count = self.held.get(name, 0)
        if count <= 1:
            self.held.pop(name, None)
        else:
            self.held[name] = count - 1

    def snapshot(self) -> Tuple[str, ...]:
        return tuple(sorted(self.held))
