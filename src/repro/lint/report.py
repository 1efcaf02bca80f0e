"""Human-readable reporters."""

from __future__ import annotations

from typing import List

from repro.lint.checkers import ALL_CHECKERS
from repro.lint.engine import LintResult


def render_human(result: LintResult, *, show_unused_pragmas: bool = False) -> str:
    lines: List[str] = [f.format_human() for f in result.active]
    if show_unused_pragmas:
        lines.extend(f.format_human() for f in result.unused_pragmas)
    summary = (
        f"{len(result.active)} finding(s), {len(result.suppressed)} suppressed, "
        f"{result.files_checked} file(s) checked"
    )
    if result.parse_errors:
        summary += f", {result.parse_errors} parse error(s)"
    if show_unused_pragmas:
        summary += f", {len(result.unused_pragmas)} unused pragma(s)"
    lines.append(summary)
    return "\n".join(lines)


def render_rule_list() -> str:
    width = max(len(c.code) for c in ALL_CHECKERS)
    return "\n".join(f"{c.code.ljust(width)}  {c.title}" for c in ALL_CHECKERS)


def render_explanation(code: str) -> str:
    for checker in ALL_CHECKERS:
        if checker.code == code:
            header = f"{checker.code} — {checker.title}"
            return f"{header}\n{'=' * len(header)}\n{checker.rationale}"
    known = ", ".join(c.code for c in ALL_CHECKERS)
    raise KeyError(f"unknown rule code {code!r}; known codes: {known}")
