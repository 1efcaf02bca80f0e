"""Command-line campaign runner.

Usage::

    python -m repro.campaign --matrix laplacian2d:45 --methods FEIR AFEIR \
        --rates 1 10 --trials 8 --executor process --workers 4

    python -m repro.campaign --matrix qa8fm --trials 4 --executor serial

    # shard a campaign across machines, each shard into its own store;
    # combine the stores with a no-clobber copy, and an unsharded run
    # over the result executes nothing and prints the same fingerprint:
    python -m repro.campaign --matrix qa8fm --trials 8 --shard 0/2 \
        --store a
    python -m repro.campaign --matrix qa8fm --trials 8 --shard 1/2 \
        --store b
    cp -rn b/trials b/baselines a/
    python -m repro.campaign --matrix qa8fm --trials 8 --store a

    # store maintenance:
    python -m repro.campaign store --info
    python -m repro.campaign store --gc --days 30

Prints the aggregated slowdown table plus the result fingerprint; the
fingerprint is identical across executors — and across cold/warm store
runs, and across sharded versus single-process runs — for the same spec
and seed, which the CI jobs assert.

The content-addressed store (default ``~/.cache/repro-campaign``,
overridable via ``REPRO_CAMPAIGN_STORE``) is on by default: re-running
an unchanged campaign executes zero trials, and an interrupted campaign
resumes from its last persisted trial; a ``resume:`` line says what the
previous run's journal recorded.  ``--no-store`` opts out; a ``--shard``
run refuses it, since the store is where its trials are kept.
"""

from __future__ import annotations

import argparse
import sys

from repro.campaign.engine import run_campaign
from repro.campaign.executors import EXECUTOR_NAMES, make_executor
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
                             "the trial grid, persisting its trials into the "
                             "store; an unsharded run over a store holding "
                             "every shard's trials executes none of them")
    add_store_arguments(parser)
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-trial progress lines")
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
    return parser


def main_run(argv) -> int:
    args = build_parser().parse_args(argv)
    if args.shard and args.no_store:
        print("error: --shard needs the campaign store: a shard's trials "
              "are kept only there, so a --no-store shard could never be "
              "combined", file=sys.stderr)
        return 2
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
    summary = store.journal_summary(spec.store_key()) if store is not None else None
    if summary is not None:
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
            removed, kept = store.gc(days=args.days)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"gc: removed {removed} entr{'y' if removed == 1 else 'ies'} "
              f"unreferenced for {args.days:g} days, kept {kept}")
    return 1 if corrupt_found else 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "store":
        return main_store(argv[1:])
    if argv and argv[0] == "run":
        argv = argv[1:]
    return main_run(argv)


if __name__ == "__main__":
    sys.exit(main())
