"""CLI: ``python -m repro.sanitize {explore,canary}``.

``explore`` runs seeded schedule exploration of one runtime cell and
prints a deterministic JSON verdict (byte-identical for the same seed);
``canary`` runs the deliberately racy counter and the inverted lock
order the detector must flag (CI's guard against a silently no-op
sanitizer).

Exit codes: 0 clean, 1 a schedule broke bit-identity / tripped the
detector / the canary went undetected, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from repro.sanitize.canary import canary_verdict
from repro.sanitize.explore import DEFAULT_PREEMPT_RATE, explore
from repro.sanitize.instrument import SANITIZE_SEED_ENV

DEFAULT_SEED = 20150715


def _default_seed() -> int:
    raw = os.environ.get(SANITIZE_SEED_ENV, "").strip()
    if not raw:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"{SANITIZE_SEED_ENV} must be an integer, "
                         f"got {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sanitize",
        description="concurrency sanitizer: seeded schedule exploration "
                    "and detector canary")
    sub = parser.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("explore", help="run seeded schedules of one "
                                        "runtime cell under the sanitizer")
    ex.add_argument("--seed", type=int, default=None,
                    help=f"root seed (default: ${SANITIZE_SEED_ENV} "
                         f"or {DEFAULT_SEED})")
    ex.add_argument("--schedules", type=int, default=10,
                    help="number of seeded schedules to run (default 10)")
    ex.add_argument("--scheduler", default="threaded",
                    choices=("list", "threaded"))
    ex.add_argument("--placement", default="local",
                    choices=("local", "ranks"))
    ex.add_argument("--clock", default="wall",
                    choices=("simulated", "wall"))
    ex.add_argument("--ranks", type=int, default=1)
    ex.add_argument("--points", type=int, default=16,
                    help="2-D Poisson grid points per side (default 16)")
    ex.add_argument("--page-size", type=int, default=32)
    ex.add_argument("--preempt-rate", type=float,
                    default=DEFAULT_PREEMPT_RATE,
                    help="fraction of instrumented ops that may preempt")
    ex.add_argument("--out", metavar="FILE", default=None,
                    help="also write the JSON verdict to FILE")
    ex.add_argument("--quiet", action="store_true",
                    help="suppress per-schedule progress lines")

    sub.add_parser("canary", help="run the seeded race and lock-order "
                                  "canaries the detector must flag")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "canary":
        lines = canary_verdict()
        if not lines:
            print("canary FAILED: the detector missed a deliberately "
                  "unsynchronised counter or an inverted lock order (or "
                  "flagged a clean control) — the sanitizer is a no-op",
                  file=sys.stderr)
            return 1
        for line in lines:
            print(line)
        return 0

    seed = args.seed if args.seed is not None else _default_seed()
    if args.schedules < 1:
        raise SystemExit("--schedules must be >= 1")

    def progress(record):
        if not args.quiet:
            clean = (record["bit_identical"] and not record["races"]
                     and not record["lock_cycles"])
            print(f"schedule {record['schedule']:3d}: "
                  f"{'ok' if clean else 'FAIL'} "
                  f"({record['iterations']} iters, "
                  f"{len(record['races'])} race(s), "
                  f"{record['lock_cycles']} lock-order cycle(s))",
                  file=sys.stderr)

    verdict = explore(seed, args.schedules, scheduler=args.scheduler,
                      placement=args.placement, clock=args.clock,
                      ranks=args.ranks, points=args.points,
                      page_size=args.page_size,
                      preempt_rate=args.preempt_rate, progress=progress)
    rendered = json.dumps(verdict, indent=2, sort_keys=True)
    print(rendered)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
    return 0 if verdict["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
