"""Plain-text table formatting for experiment drivers and benchmarks."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: Optional[str] = None, float_format: str = "{:.2f}") -> str:
    """Render a fixed-width text table (no external dependency).

    Floats are rendered with ``float_format``; everything else with
    ``str``.  Used by the benchmark harness to print the same rows the
    paper's tables report.
    """
    def render(cell: object) -> str:
        if isinstance(cell, bool):
            return str(cell)
        if isinstance(cell, float):
            return float_format.format(cell)
        return str(cell)

    str_rows: List[List[str]] = [[render(c) for c in row] for row in rows]
    headers = [str(h) for h in headers]
    ncols = len(headers)
    for row in str_rows:
        if len(row) != ncols:
            raise ValueError(f"row {row} does not have {ncols} columns")
    widths = [max(len(headers[c]), *(len(r[c]) for r in str_rows)) if str_rows
              else len(headers[c]) for c in range(ncols)]
    sep = "-+-".join("-" * w for w in widths)
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths, strict=True)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths, strict=True)))
    return "\n".join(lines)
