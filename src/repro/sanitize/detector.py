"""Hybrid data-race detection over recorded sanitizer events.

The detector replays an :class:`~repro.sanitize.events.EventLog` in
observed order and maintains, per thread, a **vector clock** advanced by
the synchronisation events the instrumented primitives recorded:

* lock release -> (next) acquire of the same lock,
* queue ``put`` -> the ``get`` that received that exact item (paired by
  token, not position),
* event ``set`` -> every ``wait`` that observed it,
* condition ``wait`` modelled as release + re-acquire of its lock.

Two accesses to the same declared resource race when they come from
different threads, at least one writes, and neither happens-before the
other.  Because happens-before tracking can miss edges established
through uninstrumented channels, an **Eraser-style lockset fallback**
runs second: a candidate pair whose lockset intersection is non-empty is
demoted to *lockset-protected* (consistently locked, so the missing
edge is an instrumentation gap, not a bug).  What survives both filters
is a race, reported with both thread stacks and the locks each side
held.

The same replay derives the **lock-order graph**: every ``acquire``
event carries the locks its thread already held, so holding A while
taking B is the edge A -> B (keyed by lock *name*, so all instances of
``ThreadedBackend.lock`` are one node, as in the kernel's lockdep).  A
cycle is a potential deadlock — two threads taking those locks in
different orders can block each other for ever — and is reported even
when the run that recorded it never deadlocked.  It is the repo's only
lock-order analysis: it sees every factory-made lock in every module,
on the paths the instrumented run executed.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.sanitize.events import (Event, EventLog, OP_ACCESS, OP_ACQUIRE,
                                   OP_GET, OP_PUT, OP_RELEASE, OP_SET,
                                   OP_WAIT_EVENT)

VectorClock = Dict[str, int]


def _join(into: VectorClock, other: VectorClock) -> None:
    for thread, tick in other.items():
        if into.get(thread, 0) < tick:
            into[thread] = tick


@dataclass(frozen=True)
class AccessRecord:
    """One side of a candidate race."""

    thread: str
    write: bool
    resource: str
    seq: int
    epoch: int                     # the thread's own clock component
    held: Tuple[str, ...]
    stack: Tuple[str, ...]
    task: Optional[str] = None

    @property
    def location(self) -> str:
        return self.stack[-1] if self.stack else "<no stack>"

    def describe(self) -> str:
        kind = "write" if self.write else "read"
        who = f"{self.thread}" + (f" (task {self.task!r})" if self.task else "")
        lines = [f"{kind} by {who}, holding "
                 f"{list(self.held) if self.held else 'no locks'}:"]
        lines.extend(f"    {frame}" for frame in self.stack)
        if not self.stack:
            lines.append("    <no stack recorded>")
        return "\n".join(lines)


@dataclass(frozen=True)
class RaceReport:
    """One unordered conflicting access pair."""

    resource: str
    first: AccessRecord
    second: AccessRecord

    @property
    def access(self) -> str:
        a = "write" if self.first.write else "read"
        b = "write" if self.second.write else "read"
        return f"{a}/{b}"

    def signature(self) -> Tuple:
        """Order- and run-stable identity used for dedup and sorting."""
        sides = tuple(sorted(
            ((rec.location, rec.write, rec.task or "") for rec in
             (self.first, self.second))))
        return (self.resource, sides)

    def describe(self) -> str:
        head = (f"{self.access} race on {self.resource!r} between "
                f"{self.first.thread!r} and {self.second.thread!r}")
        return "\n".join([head,
                          "  " + self.first.describe().replace("\n", "\n  "),
                          "  " + self.second.describe().replace("\n", "\n  ")])


@dataclass(frozen=True)
class LockCycle:
    """Locks taken in a circular order, with the acquire that first
    witnessed each edge ``locks[i] -> locks[i + 1]`` (wrapping)."""

    locks: Tuple[str, ...]
    witnesses: Tuple[Event, ...]

    def describe(self) -> str:
        order = " -> ".join(self.locks + self.locks[:1])
        lines = [f"lock-order cycle {order}; two threads taking these "
                 f"locks in different orders can deadlock"]
        for held, event in zip(self.locks, self.witnesses):
            lines.append(f"  {held} -> {event.obj}: first by "
                         f"{event.thread!r} (event {event.seq})")
        return "\n".join(lines)


@dataclass
class SanitizerReport:
    """Digest of one detection pass."""

    races: List[RaceReport] = field(default_factory=list)
    #: (held, acquired) -> the acquire event that first witnessed it.
    lock_order: Dict[Tuple[str, str], Event] = field(default_factory=dict)
    lock_cycles: List[LockCycle] = field(default_factory=list)
    lockset_protected: int = 0
    events: int = 0
    accesses: int = 0
    threads: int = 0

    @property
    def ok(self) -> bool:
        return not self.races and not self.lock_cycles

    def summary(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "races": len(self.races),
            "lock_cycles": len(self.lock_cycles),
            "lockset_protected": self.lockset_protected,
            "events": self.events,
            "accesses": self.accesses,
            "threads": self.threads,
        }

    def render(self) -> str:
        lines: List[str] = []
        for race in self.races:
            lines.append(race.describe())
        for cycle in self.lock_cycles:
            lines.append(cycle.describe())
        lines.append(
            f"{len(self.races)} race(s), "
            f"{len(self.lock_cycles)} lock-order cycle(s), "
            f"{self.lockset_protected} lockset-protected "
            f"candidate(s); {self.accesses} access(es) over "
            f"{self.events} event(s) from {self.threads} thread(s)")
        return "\n".join(lines)


class _ResourceHistory:
    """Bounded access history: last write + last read per thread.

    Keeping one entry per (thread, kind) is the FastTrack-style
    compaction: a new access ordered after a thread's *latest* write is
    ordered after all its earlier ones too, so older entries can never
    flip a verdict from ordered to racy.
    """

    __slots__ = ("writes", "reads")

    def __init__(self) -> None:
        self.writes: Dict[str, AccessRecord] = {}
        self.reads: Dict[str, AccessRecord] = {}

    def others(self, thread: str, *, include_reads: bool
               ) -> List[AccessRecord]:
        prior = [rec for t, rec in self.writes.items() if t != thread]
        if include_reads:
            prior.extend(rec for t, rec in self.reads.items() if t != thread)
        return prior

    def remember(self, record: AccessRecord) -> None:
        table = self.writes if record.write else self.reads
        table[record.thread] = record


def _order_edges(event: Event) -> List[Tuple[str, str]]:
    """The lock-order edges one ``acquire`` witnesses: every lock its
    thread already held -> the one it took.  ``held`` is snapshotted
    after the acquire, so it names the lock itself — a re-entrant
    acquire, or a condition's re-acquire after ``wait``, adds nothing."""
    return [(held, event.obj) for held in event.held if held != event.obj]


def _find_cycles(edges: Iterable[Tuple[str, str]]) -> List[Tuple[str, ...]]:
    """Elementary cycles as node tuples, each once, from its smallest
    node."""
    graph: Dict[str, List[str]] = defaultdict(list)
    for a, b in sorted(edges):
        graph[a].append(b)
    cycles: List[Tuple[str, ...]] = []

    def dfs(start: str, node: str, path: List[str]) -> None:
        for nxt in graph.get(node, ()):
            if nxt == start:
                cycles.append(tuple(path))
            elif nxt > start and nxt not in path:
                path.append(nxt)
                dfs(start, nxt, path)
                path.pop()

    for node in sorted(graph):
        dfs(node, node, [node])
    return cycles


def analyze_events(events: List[Event]) -> SanitizerReport:
    """Run the hybrid detector over one recorded interleaving."""
    clocks: Dict[str, VectorClock] = {}
    lock_clocks: Dict[str, VectorClock] = {}
    put_clocks: Dict[int, VectorClock] = {}
    event_clocks: Dict[str, VectorClock] = {}
    history: Dict[str, _ResourceHistory] = {}
    report = SanitizerReport(events=len(events))
    seen: set = set()

    for event in events:
        clock = clocks.setdefault(event.thread, {})
        clock[event.thread] = clock.get(event.thread, 0) + 1
        if event.op == OP_ACQUIRE:
            released = lock_clocks.get(event.obj)
            if released is not None:
                _join(clock, released)
            for edge in _order_edges(event):
                report.lock_order.setdefault(edge, event)
        elif event.op == OP_RELEASE:
            _join(lock_clocks.setdefault(event.obj, {}), clock)
        elif event.op == OP_PUT:
            put_clocks[event.seq] = dict(clock)
        elif event.op == OP_GET:
            if event.token is not None:
                produced = put_clocks.pop(event.token, None)
                if produced is not None:
                    _join(clock, produced)
        elif event.op == OP_SET:
            _join(event_clocks.setdefault(event.obj, {}), clock)
        elif event.op == OP_WAIT_EVENT:
            observed = event_clocks.get(event.obj)
            if observed is not None:
                _join(clock, observed)
        elif event.op == OP_ACCESS:
            report.accesses += 1
            record = AccessRecord(thread=event.thread, write=event.write,
                                  resource=event.obj, seq=event.seq,
                                  epoch=clock[event.thread],
                                  held=event.held, stack=event.stack,
                                  task=event.task)
            hist = history.setdefault(event.obj, _ResourceHistory())
            # A write conflicts with prior reads and writes; a read only
            # with prior writes.
            for prior in hist.others(event.thread,
                                     include_reads=event.write):
                if clock.get(prior.thread, 0) >= prior.epoch:
                    continue                    # happens-before ordered
                common = set(prior.held) & set(record.held)
                if common:
                    report.lockset_protected += 1
                    continue                    # Eraser fallback: locked
                race = RaceReport(resource=event.obj, first=prior,
                                  second=record)
                if race.signature() in seen:
                    continue
                seen.add(race.signature())
                report.races.append(race)
            hist.remember(record)

    report.threads = len(clocks)
    report.races.sort(key=RaceReport.signature)
    for locks in _find_cycles(report.lock_order):
        report.lock_cycles.append(LockCycle(locks, tuple(
            report.lock_order[edge]
            for edge in zip(locks, locks[1:] + locks[:1]))))
    return report


def analyze(log: Optional[EventLog] = None) -> SanitizerReport:
    """Analyze a log (default: the global one the wrappers record into)."""
    if log is None:
        from repro.sanitize.instrument import LOG
        log = LOG
    return analyze_events(log.events())
