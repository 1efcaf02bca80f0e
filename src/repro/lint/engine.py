"""Lint engine: file discovery, parsing, checker dispatch, suppression."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Sequence

from repro.lint.base import FileContext
from repro.lint.checkers import ALL_CHECKERS
from repro.lint.findings import Finding
from repro.lint.imports import ImportMap
from repro.lint.pragmas import PragmaSheet

#: Directory names never descended into during discovery.
SKIP_DIRS = frozenset({".git", "__pycache__", ".ruff_cache", ".pytest_cache", "build", "dist"})


@dataclass
class LintResult:
    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: int = 0

    @property
    def active(self) -> List[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> List[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def ok(self) -> bool:
        return not self.active

    def extend(self, other: "LintResult") -> None:
        self.findings.extend(other.findings)
        self.files_checked += other.files_checked
        self.parse_errors += other.parse_errors


def lint_source(source: str, path: str) -> LintResult:
    """Lint one in-memory source buffer (the unit the tests drive)."""
    result = LintResult(files_checked=1)
    path = Path(path).as_posix()
    sheet = PragmaSheet.from_source(source, path)
    result.findings.extend(sheet.error_findings(path))
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        result.parse_errors += 1
        result.findings.append(
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                code="parse-error",
                message=f"file does not parse: {exc.msg}",
            )
        )
        result.findings.sort(key=Finding.sort_key)
        return result

    ctx = FileContext(path=path, source=source, tree=tree, imports=ImportMap.from_tree(tree))
    raw: List[Finding] = []
    for checker in ALL_CHECKERS:
        raw.extend(checker.run(ctx))
    for finding in raw:
        reason = sheet.reason_for(finding.line, finding.code)
        result.findings.append(finding if reason is None else finding.suppress(reason))
    # A grant that suppressed nothing is stale: itself a finding.
    result.findings.extend(sheet.unused_findings(path))
    result.findings.sort(key=Finding.sort_key)
    return result


def lint_file(path: Path) -> LintResult:
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        result = LintResult(files_checked=1, parse_errors=1)
        result.findings.append(
            Finding(
                path=path.as_posix(),
                line=1,
                col=0,
                code="parse-error",
                message=f"cannot read file: {exc}",
            )
        )
        return result
    return lint_source(source, path.as_posix())


def discover(paths: Iterable[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_file():
            files.append(path)
        elif path.is_dir():
            files.extend(
                p
                for p in path.rglob("*.py")
                if not any(part in SKIP_DIRS for part in p.parts)
            )
    return sorted(set(files), key=lambda p: p.as_posix())


def lint_paths(paths: Sequence[Path]) -> LintResult:
    result = LintResult()
    for path in discover(paths):
        result.extend(lint_file(path))
    result.findings.sort(key=Finding.sort_key)
    return result
