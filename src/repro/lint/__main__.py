"""CLI: ``python -m repro.lint src/ tests/``.

Exit codes: 0 clean, 1 unsuppressed findings (a stale ``allow[...]``
is one), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.engine import lint_paths
from repro.lint.report import render_explanation, render_human, render_rule_list


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="determinism & concurrency static analysis for this repo",
    )
    parser.add_argument("paths", nargs="*", type=Path, help="files or directories to lint")
    parser.add_argument(
        "--explain",
        metavar="CODE",
        help="print the rationale for one rule code and exit",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list rule codes and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(render_rule_list())
        return 0
    if args.explain:
        try:
            print(render_explanation(args.explain))
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        return 0
    if not args.paths:
        parser.error("no paths given (or use --explain/--list-rules)")

    missing: List[Path] = [p for p in args.paths if not p.exists()]
    if missing:
        parser.error(f"no such path(s): {', '.join(str(p) for p in missing)}")

    result = lint_paths(args.paths)
    print(render_human(result))
    return 0 if result.ok else 1


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # downstream pager/head closed the pipe; not a lint failure
        raise SystemExit(0)
