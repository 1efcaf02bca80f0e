"""Inline suppression pragmas.

Syntax (one comment, one or more codes, mandatory justification)::

    x = time.time()  # repro-lint: allow[wall-clock] gc cutoff default, overridable via now=

    # repro-lint: allow[unseeded-rng] deliberate global-state perturbation for the test
    np.random.seed(0)

A pragma on its own line suppresses matching findings on the next
non-pragma line; a trailing pragma suppresses findings on its own line.
A pragma without a justification (or that fails to parse past the
``repro-lint:`` marker) is itself reported as a ``pragma`` finding and
suppresses nothing — suppressions must carry their reason in the diff.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, Iterator, List, Tuple

from repro.lint.findings import Finding

PRAGMA_MARKER = "repro-lint:"
_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*allow\[(?P<codes>[a-z][a-z0-9,\s-]*)\]\s*(?P<reason>.*)$"
)

# Findings with these codes cannot be pragma-suppressed: a broken pragma
# or an unparseable file must always surface.
UNSUPPRESSIBLE = frozenset({"pragma", "parse-error", "unused-pragma"})


class _PragmaEntry:
    """One ``allow[code]`` grant: where it was written, where it applies,
    and whether any finding ever consumed it."""

    __slots__ = ("pragma_line", "col", "code", "reason", "used")

    def __init__(self, pragma_line: int, col: int, code: str, reason: str):
        self.pragma_line = pragma_line
        self.col = col
        self.code = code
        self.reason = reason
        self.used = False


class PragmaSheet:
    """All ``repro-lint`` pragmas of one file, indexed by effective line."""

    def __init__(self) -> None:
        # effective line -> code -> grant
        self._by_line: Dict[int, Dict[str, _PragmaEntry]] = {}
        self._errors: List[Tuple[int, int, str]] = []

    @classmethod
    def from_source(cls, source: str, path: str) -> "PragmaSheet":
        sheet = cls()
        standalone: List[Tuple[int, List[_PragmaEntry]]] = []
        for line, col, text, is_standalone in _iter_comments(source):
            if PRAGMA_MARKER not in text:
                continue
            match = _PRAGMA_RE.search(text)
            if match is None:
                sheet._errors.append(
                    (line, col, "malformed pragma; expected `# repro-lint: allow[code] reason`")
                )
                continue
            reason = match.group("reason").strip()
            if not reason:
                sheet._errors.append(
                    (line, col, "pragma without justification; add a reason after the bracket")
                )
                continue
            codes = {c.strip() for c in match.group("codes").split(",") if c.strip()}
            entries = [_PragmaEntry(line, col, code, reason) for code in sorted(codes)]
            if is_standalone:
                standalone.append((line, entries))
            else:
                sheet._merge(line, entries)
        # A standalone pragma applies to the next line; stacked standalone
        # pragmas cascade so several can guard one statement.
        pragma_lines = {line for line, _ in standalone}
        for line, entries in standalone:
            target = line + 1
            while target in pragma_lines:
                target += 1
            sheet._merge(target, entries)
        return sheet

    def _merge(self, line: int, entries: List[_PragmaEntry]) -> None:
        slot = self._by_line.setdefault(line, {})
        for entry in entries:
            slot[entry.code] = entry

    def reason_for(self, line: int, code: str) -> str | None:
        if code in UNSUPPRESSIBLE:
            return None
        entry = self._by_line.get(line, {}).get(code)
        if entry is None:
            return None
        entry.used = True
        return entry.reason

    def error_findings(self, path: str) -> List[Finding]:
        return [
            Finding(path=path, line=line, col=col, code="pragma", message=message)
            for line, col, message in self._errors
        ]

    def unused_findings(self, path: str) -> List[Finding]:
        """Pragmas that suppressed nothing this run, as findings (a
        grant naming a code no checker has is stale like any other)."""
        stale = [
            entry
            for slot in self._by_line.values()
            for entry in slot.values()
            if not entry.used
        ]
        stale.sort(key=lambda e: (e.pragma_line, e.col, e.code))
        return [
            Finding(
                path=path,
                line=entry.pragma_line,
                col=entry.col,
                code="unused-pragma",
                message=f"pragma `allow[{entry.code}]` suppresses nothing — the "
                "finding it guarded is gone; delete the pragma (reason was: "
                f"{entry.reason})",
            )
            for entry in stale
        ]


def _iter_comments(source: str) -> Iterator[Tuple[int, int, str, bool]]:
    """Yield ``(line, col, text, is_standalone)`` for each comment token."""
    lines = source.splitlines()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            line, col = tok.start
            prefix = lines[line - 1][:col] if line - 1 < len(lines) else ""
            yield line, col, tok.string, not prefix.strip()
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # The engine reports unparseable files separately; fall back to a
        # line scan so pragmas in partially-broken files still register.
        for lineno, text in enumerate(lines, start=1):
            idx = text.find("#")
            if idx >= 0 and PRAGMA_MARKER in text[idx:]:
                yield lineno, idx, text[idx:], not text[:idx].strip()
