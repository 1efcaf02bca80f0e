"""``python -m bench run|compare|golden`` — see ``bench/README.md``.

``run --workload W`` measures one workload in this interpreter and
prints every metric, the checks and, last, the driver's JSON object.
``run`` without ``--workload`` measures a whole result set: every
workload, ``--runs`` times with consecutive seeds, each in a fresh
interpreter.  ``compare A B`` judges set B against set A.  ``golden``
records the default seed's fingerprints in ``bench/golden.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

from bench import DEFAULT_SEED, ROOT

# One BLAS thread, set before numpy loads (a value already in the
# environment wins).  On a small shared host OpenBLAS's helper threads
# fight the interpreter, rank and worker threads for the cores:
# solve_large measured 1.5-1.9x slower, and far less steadily, with two.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_one(args) -> int:
    try:
        from bench.harness import print_report, run_workload
        from bench.workloads import WORKLOADS
    except ImportError as exc:
        # A checkout without src/ (or without numpy/scipy) cannot be
        # measured: fail without printing a result.
        print(f"bench: cannot import the system under test: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run_workload(WORKLOADS[args.workload], seed=args.seed,
                          seconds=args.seconds, trace=bool(args.trace),
                          out=args.out)
    print_report(result)
    return 0


def _run_set(args) -> int:
    """Every workload x ``--runs`` seeds, one fresh interpreter each."""
    names = [w["name"] for w in _benchmark_json()["workloads"]]
    out = Path(args.out) if args.out else Path.cwd() / "bench-results" / "set"
    for name in names:
        for run in range(args.runs):
            command = [sys.executable, "-m", "bench", "run",
                       "--workload", name, "--seed", str(args.seed + run),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--out", str(out)]
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, check=False)
            if done.returncode != 0:
                print(f"bench: {name} (seed {args.seed + run}) exited "
                      f"{done.returncode}", file=sys.stderr)
                return done.returncode
            line = json.loads(done.stdout.strip().splitlines()[-1])
            shown = "  ".join(f"{k} {v['value']:.6g} {v['unit']}"
                              for k, v in list(line["metrics"].items())[:4])
            print(f"{name:14s} seed {args.seed + run}  "
                  f"failed {line['failed']}/{line['attempted']}  {shown}")
    print(f"result set written to {out}")
    return 0


def _record_golden() -> int:
    """Fingerprint every workload at the default seed, on this host's
    numerics stack, into ``bench/golden.json``."""
    import tempfile

    from bench.harness import (GOLDEN_PATH, host_description, numerics_stack,
                               run_workload)
    from bench.workloads import WORKLOADS
    # Without the old record no golden applies, so the only problems a
    # run can report are failures of the workload's own checks.
    GOLDEN_PATH.unlink(missing_ok=True)
    fingerprints = {}
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as out:
        for name, workload in WORKLOADS.items():
            result = run_workload(workload, seed=DEFAULT_SEED, seconds=0.0,
                                  out=Path(out))
            if result["problems"]:
                print(f"bench golden: {name} fails its own checks: "
                      f"{result['problems'][0]}", file=sys.stderr)
                return 1
            fingerprints[name] = result["fingerprint"]
            print(f"{name:14s} {result['fingerprint']}")
    GOLDEN_PATH.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "stack": numerics_stack(host_description()),
         "fingerprints": fingerprints}, indent=1) + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure one workload or a set")
    run.add_argument("--workload", help="one workload, in this interpreter "
                     "(default: all, each in a fresh interpreter)")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=None,
                     help="measuring time per run (default: run_seconds of "
                     "BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: per-layer metrics from a traced run")
    run.add_argument("--runs", type=int, default=10,
                     help="runs per workload of a result set, seeds "
                     "--seed, --seed+1, ...")
    run.add_argument("--out", default=None,
                     help="directory for result files (default: "
                     "bench-results/, or bench-results/set for a set)")

    compare = commands.add_parser(
        "compare", help="judge result set B against result set A")
    compare.add_argument("a", metavar="A", help="directory of the base set")
    compare.add_argument("b", metavar="B", help="directory of the new set")

    commands.add_parser(
        "golden", help="record the default seed's fingerprints")

    args = parser.parse_args(argv)
    if args.command == "golden":
        return _record_golden()
    if args.command == "compare":
        from bench.compare import compare_sets
        return compare_sets(Path(args.a), Path(args.b), _benchmark_json())
    if args.seconds is None:
        args.seconds = float(_benchmark_json()["run_seconds"])
    if args.workload:
        return _run_one(args)
    return _run_set(args)


if __name__ == "__main__":
    sys.exit(main())
