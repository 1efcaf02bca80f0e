"""sanitizer-factory: library code must construct synchronisation
primitives through ``repro.sanitize``.

The concurrency sanitizer can only observe what flows through its
instrumented wrappers.  A raw ``threading.Lock()`` anywhere under
``repro/`` is invisible to the race detector, to the lock-order
analysis and to the schedule explorer's preemption points, so a
``REPRO_TSAN=1`` run would silently report partial coverage.  This rule
keeps coverage total by flagging direct construction of stdlib
primitives everywhere but in ``repro/sanitize/`` itself, which builds
the raw primitives the factories wrap.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.base import Checker, FileContext
from repro.lint.findings import Finding

#: stdlib constructor -> the sanitizer-aware factory that replaces it.
FACTORY_FOR = {
    "threading.Lock": "repro.sanitize.make_lock",
    "threading.RLock": "repro.sanitize.make_rlock",
    "threading.Condition": "repro.sanitize.make_condition",
    "threading.Event": "repro.sanitize.make_event",
    "threading.Semaphore": "repro.sanitize.make_lock",
    "threading.BoundedSemaphore": "repro.sanitize.make_lock",
    "queue.Queue": "repro.sanitize.make_queue",
    "queue.LifoQueue": "repro.sanitize.make_queue",
    "queue.PriorityQueue": "repro.sanitize.make_queue",
    "queue.SimpleQueue": "repro.sanitize.make_queue",
}


class SanitizeFactoryChecker(Checker):
    code = "sanitizer-factory"
    title = "repro/ constructs locks/queues via repro.sanitize factories"
    rationale = """\
The race detector and lock-order analysis (`REPRO_TSAN=1`) and the
schedule explorer (`python -m repro.sanitize explore`) only see
synchronisation that goes through the instrumented factories —
`make_lock`, `make_rlock`, `make_condition`, `make_event`,
`make_queue`.  A primitive built directly from `threading`/`queue`
anywhere under repro/ creates a blind spot: the lock still synchronises
at runtime, but the detector never learns the happens-before edges it
creates or the order it is taken in, so real orderings get misreported
as races (or real races stay hidden behind phantom ones).  With the
sanitizer off the factories return the raw stdlib objects, so there is
no cost to routing through them.

Fix by swapping the constructor for its factory (same call shape;
`field(default_factory=threading.Event)` becomes
`field(default_factory=make_event)`).  Primitives that deliberately
bypass instrumentation — e.g. the event log's own internal lock, which
must not record into itself — live in repro/sanitize/, which the rule
skips; if one truly belongs elsewhere, say why:

    self._baton = threading.Lock()  # repro-lint: allow[sanitizer-factory] bootstrap lock guarding the sanitizer's own state"""

    def applies_to(self, ctx: FileContext) -> bool:
        parts = ctx.path.split("/")
        return ("repro" in parts and "sanitize" not in parts
                and not ctx.is_relaxed)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.imports.resolve_call(node)
            if qualified in FACTORY_FOR:
                yield ctx.finding(
                    node,
                    self.code,
                    f"raw `{qualified}()` is invisible to "
                    f"the sanitizer — construct it via "
                    f"`{FACTORY_FOR[qualified]}` (returns the raw primitive "
                    "when REPRO_TSAN is off)",
                )
                continue
            # dataclasses.field(default_factory=threading.Event)
            for kw in node.keywords:
                if kw.arg != "default_factory":
                    continue
                factory = ctx.imports.resolve(kw.value)
                if factory in FACTORY_FOR:
                    yield ctx.finding(
                        kw.value,
                        self.code,
                        f"raw `default_factory={factory}` is "
                        f"invisible to the sanitizer — use "
                        f"`{FACTORY_FOR[factory]}`",
                    )
