"""Command-line interface of the campaign service.

Usage::

    # start the daemon (foreground; Ctrl-C = non-drain shutdown)
    python -m repro.service serve --port 8642 --workers 4

    # submit a campaign and stream its progress until done
    python -m repro.service submit --matrix laplacian2d:45 \
        --methods FEIR AFEIR --rates 1 10 --trials 8 --watch

    # observe / manage
    python -m repro.service status            # all jobs
    python -m repro.service status j1-ab12cd34
    python -m repro.service watch j1-ab12cd34
    python -m repro.service metrics
    python -m repro.service cancel j1-ab12cd34
    python -m repro.service shutdown          # drains, then exits
    python -m repro.service shutdown --now    # cancels in-flight jobs

The submitted spec is identical to ``python -m repro.campaign run``'s:
the daemon prints the same fingerprint an offline run of the same spec
produces, byte for byte (the ``campaign-service`` CI job asserts it).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from repro.campaign.spec import add_spec_arguments, spec_from_args
from repro.campaign.store import (StoreSchemaError, add_store_arguments,
                                  store_from_args)
from repro.service.client import ServiceClient, ServiceError, default_url
from repro.service.server import CampaignService, default_host, default_port

SUBCOMMANDS = ("serve", "submit", "status", "watch", "cancel", "shutdown",
               "metrics")


def add_client_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--url", default=None,
                        help=f"daemon URL (default: REPRO_SERVICE_URL or "
                             f"{default_url()})")


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service serve",
        description="Run the campaign daemon in the foreground.")
    parser.add_argument("--host", default=None,
                        help=f"bind address (default: REPRO_SERVICE_HOST "
                             f"or {default_host()})")
    parser.add_argument("--port", type=int, default=None,
                        help=f"bind port, 0 = ephemeral (default: "
                             f"REPRO_SERVICE_PORT or {default_port()})")
    parser.add_argument("--workers", type=int, default=None,
                        help="pool process count (default: all cores, "
                             "capped by REPRO_MAX_WORKERS)")
    add_store_arguments(parser)
    return parser


def main_serve(argv) -> int:
    args = build_serve_parser().parse_args(argv)
    try:
        store = store_from_args(args)
        service = CampaignService(host=args.host, port=args.port,
                                  workers=args.workers, store=store)
    except (StoreSchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    service.start()
    # ``kill <pid>`` is Ctrl-C: a non-drain shutdown that joins the pool,
    # so no worker process outlives the daemon.  Installed after start()
    # so the forked children keep the default disposition.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    print(f"campaign service listening on {service.url()} "
          f"({service.workers} workers, "
          f"store={store.root if store else 'none (RAM only)'})",
          flush=True)
    service.serve_forever()
    print("campaign service stopped")
    return 0


def _print_status(status: dict) -> None:
    line = (f"{status['id']}: {status['state']} "
            f"[{status['completed']}/{status['total']}] "
            f"cached={status['cached']} executed={status['executed']}")
    if status.get("shard_retries"):
        line += f" shard-retries={status['shard_retries']}"
    if status.get("fingerprint"):
        line += f"\n  fingerprint: {status['fingerprint']}"
    if status.get("error"):
        line += f"\n  error: {status['error']}"
    print(line)


def _print_event(event: dict) -> None:
    kind = event.get("event")
    if kind == "trial":
        status = "ok" if event.get("converged") else "DIVERGED"
        origin = "cache" if event.get("cached") else "run"
        print(f"  [{event['completed']}/{event['total']}] "
              f"{event['matrix']} {event['method']} "
              f"rate={event['rate']:g} rep={event['repetition']}: "
              f"{status} ({event['iterations']} it, {origin})")
    elif kind == "start":
        print(f"start: {event['total']} trial(s), {event['cached']} cached, "
              f"{event['pending']} pending over {event['shards']} shard(s)")
    elif kind == "shard-retry":
        print(f"shard {event['shard']} retry #{event['attempt']}: "
              f"{event.get('reason', '')}")
    elif kind == "done":
        print(f"done: executed={event['executed']} cached={event['cached']} "
              f"wall={event.get('wall_s', 0):g}s")
        print(f"fingerprint: {event['fingerprint']}")
    elif kind in ("failed", "cancelled"):
        print(f"{kind}: {event.get('error') or ''}".rstrip(": "))
    elif kind == "queued":
        print(f"queued: job {event.get('job')} "
              f"(spec key {event.get('spec_key', '')[:12]})")


def _follow(client: ServiceClient, job_id: str, raw: bool = False) -> int:
    """Print the job's events to its terminal one; 0 only for ``done``."""
    final = None
    for event in client.watch(job_id):
        if raw:
            print(json.dumps(event, sort_keys=True), flush=True)
        else:
            _print_event(event)
        final = event
    return 0 if final is not None and final.get("event") == "done" else 1


def main_submit(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service submit",
        description="Submit a campaign to the daemon.")
    add_client_arguments(parser)
    add_spec_arguments(parser)
    parser.add_argument("--watch", action="store_true",
                        help="stream the job's progress until it finishes")
    args = parser.parse_args(argv)
    try:
        spec = spec_from_args(args, name="service-cli")
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    client = ServiceClient(args.url)
    job = client.submit(spec)
    print(f"submitted: {job['id']} ({job['total']} trials, "
          f"spec key {job['spec_key'][:12]})")
    return _follow(client, job["id"]) if args.watch else 0


def main_status(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service status",
        description="Show one job's status, or all jobs.")
    add_client_arguments(parser)
    parser.add_argument("job", nargs="?", default=None)
    args = parser.parse_args(argv)
    client = ServiceClient(args.url)
    jobs = client.jobs() if args.job is None else [client.status(args.job)]
    for status in jobs:
        _print_status(status)
    if not jobs:
        print("no jobs")
    return 0


def main_watch(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service watch",
        description="Stream a job's progress events (chunked JSONL).")
    add_client_arguments(parser)
    parser.add_argument("job")
    parser.add_argument("--raw", action="store_true",
                        help="print the JSONL lines instead of a summary")
    args = parser.parse_args(argv)
    return _follow(ServiceClient(args.url), args.job, raw=args.raw)


def main_cancel(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service cancel",
        description="Cancel a queued or running job.")
    add_client_arguments(parser)
    parser.add_argument("job")
    args = parser.parse_args(argv)
    _print_status(ServiceClient(args.url).cancel(args.job))
    return 0


def main_shutdown(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service shutdown",
        description="Shut the daemon down (drains by default).")
    add_client_arguments(parser)
    parser.add_argument("--now", action="store_true",
                        help="cancel in-flight jobs instead of draining")
    args = parser.parse_args(argv)
    response = ServiceClient(args.url).shutdown(drain=not args.now)
    print(f"shutting down (drain={response['drain']})")
    return 0


def main_metrics(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service metrics",
        description="Print the daemon's /metrics payload as JSON.")
    add_client_arguments(parser)
    args = parser.parse_args(argv)
    metrics = ServiceClient(args.url).metrics()
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    command, rest = argv[0], argv[1:]
    handlers = {
        "serve": main_serve, "submit": main_submit, "status": main_status,
        "watch": main_watch, "cancel": main_cancel,
        "shutdown": main_shutdown, "metrics": main_metrics,
    }
    handler = handlers.get(command)
    if handler is None:
        print(f"error: unknown subcommand {command!r}; expected one of "
              f"{', '.join(SUBCOMMANDS)}", file=sys.stderr)
        return 2
    try:
        return handler(rest)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
