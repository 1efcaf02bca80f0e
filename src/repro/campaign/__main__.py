"""Command-line campaign runner.

Usage::

    python -m repro.campaign --matrix laplacian2d:45 --methods FEIR AFEIR \
        --rates 1 10 --trials 8 --executor process --workers 4

    python -m repro.campaign --matrix qa8fm --trials 4 --executor serial

    # shard a campaign across machines, then merge the partials:
    python -m repro.campaign --matrix qa8fm --trials 8 \
        --shard 0/2 --out shard0.json
    python -m repro.campaign --matrix qa8fm --trials 8 \
        --shard 1/2 --out shard1.json
    python -m repro.campaign merge shard0.json shard1.json

    # store maintenance:
    python -m repro.campaign store --info
    python -m repro.campaign store --gc --days 30

Prints the aggregated slowdown table plus the result fingerprint; the
fingerprint is identical across executors — and across cold/warm store
runs, and across shard-and-merge versus single-process runs — for the
same spec and seed, which the CI jobs assert.

The content-addressed store (default ``~/.cache/repro-campaign``,
overridable via ``REPRO_CAMPAIGN_STORE``) is on by default: re-running
an unchanged campaign executes zero trials, and an interrupted campaign
resumes from its last persisted trial.  ``--no-store`` opts out.
"""

from __future__ import annotations

import argparse
import sys

from repro.campaign.engine import run_campaign
from repro.campaign.executors import EXECUTOR_NAMES, make_executor
from repro.campaign.results import CampaignResult
from repro.campaign.spec import (add_spec_arguments, parse_shard,
                                 spec_from_args)
from repro.campaign.store import (GC_DEFAULT_DAYS, CampaignStore,
                                  StoreSchemaError, add_store_arguments,
                                  store_from_args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Run a fault-injection campaign over the resilient CG.")
    add_spec_arguments(parser)
    parser.add_argument("--executor", choices=EXECUTOR_NAMES,
                        default="serial")
    parser.add_argument("--workers", type=int, default=None,
                        help="pool worker count (process executor only)")
    parser.add_argument("--shard", type=parse_shard, default=None,
                        metavar="I/N",
                        help="run only the I-th of N round-robin shards of "
                             "the trial grid; write the partial result with "
                             "--out and combine the shards with the merge "
                             "subcommand (byte-identical to an unsharded "
                             "run)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the (possibly partial) campaign result "
                             "to FILE as JSON")
    add_store_arguments(parser)
    parser.add_argument("--resume", action="store_true",
                        help="report what a previous (possibly interrupted) "
                             "run of this campaign already persisted before "
                             "continuing from it; purely informational — "
                             "with the store on, completed trials are "
                             "always reused")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-trial progress lines")
    return parser


def build_merge_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign merge",
        description="Merge sharded partial campaign results into one "
                    "aggregate whose fingerprint is byte-identical to an "
                    "unsharded run.")
    parser.add_argument("partials", nargs="+", metavar="PARTIAL.json",
                        help="partial result files written by --shard/--out")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the merged result to FILE as JSON")
    parser.add_argument("--allow-incomplete", action="store_true",
                        help="merge even if the shards do not cover the "
                             "full campaign grid")
    return parser


def build_store_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign store",
        description="Inspect or garbage-collect the campaign store.")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="store directory (default: "
                             "REPRO_CAMPAIGN_STORE or "
                             "~/.cache/repro-campaign)")
    parser.add_argument("--info", action="store_true",
                        help="print entry counts per artifact kind")
    parser.add_argument("--verify", action="store_true",
                        help="re-check every entry against its "
                             "content-token filename and embedded "
                             "checksum; exit 1 if any entry is corrupt")
    parser.add_argument("--remove", action="store_true",
                        help="with --verify: delete corrupt entries "
                             "(they become plain cache misses)")
    parser.add_argument("--gc", action="store_true",
                        help="prune entries unreferenced for --days days")
    parser.add_argument("--days", type=float, default=GC_DEFAULT_DAYS,
                        help=f"gc age threshold in days (default "
                             f"{GC_DEFAULT_DAYS}; reads refresh an entry's "
                             f"age)")
    parser.add_argument("--now", type=float, default=None, metavar="EPOCH",
                        help="with --gc: epoch seconds to treat as the "
                             "current time (default: the wall clock); "
                             "makes cutoff behaviour reproducible")
    return parser


def main_run(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = spec_from_args(args, name="cli")
        executor = make_executor(args.executor, max_workers=args.workers)
        store = store_from_args(args)
    except (ValueError, KeyError, StoreSchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"campaign: {spec.describe()}")
    print(f"executor: {executor.describe()}")
    if args.shard:
        print(f"shard: {args.shard[0]}/{args.shard[1]}")
    if store is not None and args.resume:
        summary = store.journal_summary(spec.store_key())
        if summary is None:
            print("resume: no previous journal for this campaign — "
                  "starting fresh")
        else:
            print(f"resume: previous run persisted "
                  f"{summary['persisted']} trial(s) "
                  f"(last event: {summary['last'].get('event')})")

    def progress(trial, done, total):
        status = "ok" if trial.converged else "DIVERGED"
        print(f"  [{done}/{total}] {trial.matrix} {trial.method} "
              f"rate={trial.rate:g} rep={trial.repetition}: {status} "
              f"({trial.iterations} it, {trial.wall_time:.2f}s wall)")

    try:
        result = run_campaign(spec, executor=executor,
                              progress=None if args.quiet else progress,
                              store=store, shard=args.shard)
    except StoreSchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print()
    print(result.format())
    print(f"\ntrials: {len(result)}  wall time: {result.wall_time:.2f}s")
    if store is not None:
        print(f"{store.stats_line()}")
        print(f"executed: {result.executed}  cache-hits: "
              f"{result.cache_hits}")
    if executor.deaths:
        print(f"worker-deaths: {executor.deaths} "
              f"resubmitted: {executor.resubmitted}")
    print(f"fingerprint: {result.fingerprint()}")
    if args.out:
        result.save(args.out)
        print(f"wrote: {args.out}")
    return 0


def main_merge(argv) -> int:
    args = build_merge_parser().parse_args(argv)
    try:
        parts = [CampaignResult.load(path) for path in args.partials]
        merged = CampaignResult.merge(
            parts, require_complete=not args.allow_incomplete)
    except StoreSchemaError as exc:
        print(f"error: incompatible result schema — {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(merged.format())
    print(f"\ntrials: {len(merged)} (from {len(parts)} partials)")
    print(f"fingerprint: {merged.fingerprint()}")
    if args.out:
        merged.save(args.out)
        print(f"wrote: {args.out}")
    return 0


def main_store(argv) -> int:
    args = build_store_parser().parse_args(argv)
    if not (args.info or args.gc or args.verify):
        print("error: nothing to do — pass --info, --verify and/or --gc",
              file=sys.stderr)
        return 2
    if args.remove and not args.verify:
        print("error: --remove only makes sense with --verify",
              file=sys.stderr)
        return 2
    try:
        store = CampaignStore(args.store)
    except StoreSchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.info:
        counts = store.entry_count()
        print(f"store: {store.root}")
        for kind, count in sorted(counts.items()):
            print(f"  {kind}: {count}")
    corrupt_found = False
    if args.verify:
        report = store.verify(remove=args.remove)
        print(f"verify: {report.verified} verified, "
              f"{len(report.corrupt)} corrupt"
              + (f", {report.removed} removed" if args.remove else ""))
        for kind, path, reason in report.corrupt:
            print(f"  corrupt {kind}: {path} — {reason}")
        corrupt_found = not report.ok
    if args.gc:
        try:
            removed, kept = store.gc(days=args.days, now=args.now)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"gc: removed {removed} entr{'y' if removed == 1 else 'ies'} "
              f"unreferenced for {args.days:g} days, kept {kept}")
    return 1 if corrupt_found else 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "merge":
        return main_merge(argv[1:])
    if argv and argv[0] == "store":
        return main_store(argv[1:])
    if argv and argv[0] == "run":
        argv = argv[1:]
    return main_run(argv)


if __name__ == "__main__":
    sys.exit(main())
