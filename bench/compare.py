"""``python -m bench compare A B``: is result set B no worse than set A?

A result set is a directory of untraced result files (what ``python -m
bench run`` writes).  For every (end-to-end metric, workload) pair the
medians over the set's runs are compared against the bound fixed in
``BENCHMARK.json``:

* ``worse``      — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread (quartile distance over the
  median) of either set is wider than the bound, so a shift of the size
  of the bound could not be seen — unless every run of B beats every
  run of A;
* ``within``     — otherwise.

Fingerprints are shown side by side per (workload, seed); the failed
share of each workload is held to a bound of 0.  Exit status 1 on any
``worse`` row, any failure increase or any fingerprint change.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Tuple

Runs = Dict[str, List[dict]]


def load_set(directory: Path) -> Runs:
    """Untraced result documents of one set, by workload."""
    runs: Runs = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        document = json.loads(path.read_text())
        runs.setdefault(document["workload"], []).append(document)
    if not runs:
        raise SystemExit(f"bench compare: no untraced result files "
                         f"(*-trace0.json) in {directory}")
    return runs


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else 0.0


def judge(a: List[float], b: List[float], better: str, bound: float
          ) -> Tuple[str, float]:
    """Verdict and B's relative change (positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    change = sign * (median_b - median_a) / abs(median_a)
    if change > bound:
        return "worse", change
    if max(spread(a), spread(b)) > bound:
        b_always_better = (max(b) < min(a) if better == "lower"
                           else min(b) > max(a))
        if not b_always_better:
            return "unresolved", change
    return "within", change


def compare_sets(dir_a: Path, dir_b: Path, benchmark: dict) -> int:
    set_a, set_b = load_set(dir_a), load_set(dir_b)
    regressions = 0
    print(f"{'workload':14s} {'metric':12s} {'A median':>12s} "
          f"{'B median':>12s} {'change':>8s} {'bound':>6s} "
          f"{'spread A':>9s} {'spread B':>9s}  verdict")
    for workload in (w["name"] for w in benchmark["workloads"]):
        if workload not in set_a or workload not in set_b:
            print(f"{workload:14s} missing from "
                  f"{'A' if workload not in set_a else 'B'}")
            regressions += 1
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name]["value"] for run in set_a[workload]]
            b = [run["metrics"][name]["value"] for run in set_b[workload]]
            verdict, change = judge(a, b, metric["better"], metric["bound"])
            regressions += verdict == "worse"
            print(f"{workload:14s} {name:12s} "
                  f"{statistics.median(a):12.5g} "
                  f"{statistics.median(b):12.5g} {100 * change:+7.1f}% "
                  f"{100 * metric['bound']:5.0f}% {100 * spread(a):8.1f}% "
                  f"{100 * spread(b):8.1f}%  {verdict}")
        share_a, share_b = (
            sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            for runs in (set_a[workload], set_b[workload]))
        verdict = "worse" if share_b > share_a else "within"
        regressions += verdict == "worse"
        print(f"{workload:14s} {'failed_frac':12s} {share_a:12.5g} "
              f"{share_b:12.5g} {'':8s} {0:5.0f}% {'':9s} {'':9s}  {verdict}")

    print()
    print(f"{'workload':14s} {'seed':>10s}  {'fingerprint A':16s}  "
          f"{'fingerprint B':16s}")
    for workload in sorted(set(set_a) & set(set_b)):
        by_seed_b = {run["seed"]: run for run in set_b[workload]}
        for run_a in set_a[workload]:
            run_b = by_seed_b.get(run_a["seed"])
            if run_b is None:
                continue
            same = run_a["fingerprint"] == run_b["fingerprint"]
            regressions += not same
            print(f"{workload:14s} {run_a['seed']:10d}  "
                  f"{run_a['fingerprint'][:16]}  {run_b['fingerprint'][:16]}"
                  f"{'' if same else '  CHANGED'}")
    print()
    print("no regression" if not regressions
          else f"{regressions} regression(s) or fingerprint change(s)")
    return 1 if regressions else 0
