"""lock-discipline: bare ``.acquire()`` calls.

An acquire that is not a ``with`` statement and not paired with a
``release()`` of the same receiver in an enclosing or immediately
following ``try``/``finally`` leaks the lock on any exception.

Lock *order* is not checked here: the sanitizer derives the lock-order
graph from the acquires an instrumented run really made
(:func:`repro.sanitize.detector.analyze_events`), over every
factory-made lock in every module.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.lint.base import Checker, FileContext
from repro.lint.findings import Finding


class LockChecker(Checker):
    code = "lock-discipline"
    title = "no bare .acquire() outside with/try-finally"
    rationale = """\
The threaded backend, the rank runtime, the campaign engine and the
daemon each coordinate with locks.  An acquire not paired with release
in a `with` statement or an enclosing / immediately-following
try/finally leaks the lock on any exception, hanging every other
thread.  (Lock-order cycles are the sanitizer's to find: it derives the
lock-order graph from what a `REPRO_TSAN=1` run acquires.)

Fix with `with lock:` or try/finally.  A justified exception (e.g.
handoff protocols where release happens on another thread) takes a
pragma:

    self._baton.acquire()  # repro-lint: allow[lock-discipline] released by the worker that takes the baton"""

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for call in ast.walk(ctx.tree):
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "acquire"
            ):
                continue
            receiver = _expr_text(call.func.value)
            if not self._acquire_is_guarded(ctx, call, receiver):
                yield ctx.finding(
                    call,
                    self.code,
                    f"bare `{receiver}.acquire()` outside `with`/try-finally; an "
                    "exception between acquire and release leaks the lock — use "
                    "`with` or pair with try/finally release",
                )

    @staticmethod
    def _acquire_is_guarded(ctx: FileContext, call: ast.Call, receiver: str) -> bool:
        def releases(try_node: ast.Try) -> bool:
            for fin in try_node.finalbody:
                for node in ast.walk(fin):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "release"
                        and _expr_text(node.func.value) == receiver
                    ):
                        return True
            return False

        # nearest enclosing statement of the acquire call
        stmt: Optional[ast.AST] = call
        while stmt is not None and not isinstance(stmt, ast.stmt):
            stmt = ctx.parent(stmt)
        # guarded if any enclosing try (within the same function) releases
        # the same receiver in its finally block
        node = stmt
        while node is not None and not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
        ):
            if isinstance(node, ast.Try) and releases(node):
                return True
            node = ctx.parent(node)
        # guarded if the statement right after the acquire is such a try
        parent = ctx.parent(stmt) if stmt is not None else None
        if parent is not None:
            for _, value in ast.iter_fields(parent):
                if isinstance(value, list) and stmt in value:
                    idx = value.index(stmt)
                    if (
                        idx + 1 < len(value)
                        and isinstance(value[idx + 1], ast.Try)
                        and releases(value[idx + 1])
                    ):
                        return True
        return False


def _expr_text(node: ast.expr) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on valid trees
        return "<expr>"
