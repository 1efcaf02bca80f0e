"""Checker base class and file context."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.lint.findings import Finding
from repro.lint.imports import ImportMap

#: Path segments whose files are exercised by looser rules (tests may use
#: seeded ``default_rng`` directly, clocks in benchmarks are fine, ...).
RELAXED_SEGMENTS = ("tests", "benchmarks", "examples", "scripts")


@dataclass
class FileContext:
    """Everything a checker needs to know about one parsed file."""

    path: str  # as given on the command line, posix separators
    source: str
    tree: ast.AST
    imports: ImportMap
    _parents: Optional[Dict[int, ast.AST]] = field(default=None, repr=False)

    @property
    def is_relaxed(self) -> bool:
        parts = self.path.split("/")
        return any(seg in parts for seg in RELAXED_SEGMENTS)

    def module_is(self, *suffixes: str) -> bool:
        """True if this file is one of the given repo modules.

        Matches by path suffix so absolute paths, ``src/``-relative paths,
        and bare module paths all work: ``module_is("repro/campaign/store.py")``.
        """
        norm = self.path.lstrip("./")
        for suffix in suffixes:
            if norm == suffix or norm.endswith("/" + suffix):
                return True
        return False

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        if self._parents is None:
            self._parents = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    self._parents[id(child)] = parent
        return self._parents.get(id(node))

    def finding(self, node: ast.AST, code: str, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=code,
            message=message,
        )


class Checker:
    """One lint rule.  Subclasses set the class attributes and ``check``."""

    #: kebab-case rule code used in reports and pragmas
    code: str = ""
    #: one-line summary for ``--list-rules``
    title: str = ""
    #: multi-paragraph rationale for ``--explain CODE``
    rationale: str = ""

    def applies_to(self, ctx: FileContext) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterable[Finding]:  # pragma: no cover - interface
        raise NotImplementedError

    def run(self, ctx: FileContext) -> List[Finding]:
        if not self.applies_to(ctx):
            return []
        return list(self.check(ctx))
