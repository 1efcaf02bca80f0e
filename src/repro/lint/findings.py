"""Finding model shared by checkers, engine, and reporters."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple


@dataclass
class Finding:
    """One diagnostic emitted by a checker.

    ``path`` is the path as given on the command line (posix-style),
    ``line``/``col`` are 1-based line and 0-based column, matching the
    ``ast`` node they came from.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    suppressed: bool = False
    suppression_reason: Optional[str] = None

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)

    def suppress(self, reason: str) -> "Finding":
        return replace(self, suppressed=True, suppression_reason=reason)

    def format_human(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: [{self.code}] {self.message}"
