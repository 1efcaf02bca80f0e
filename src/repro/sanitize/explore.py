"""Seeded schedule exploration (PCT-style randomized preemption).

A data race only materialises under an interleaving that exercises it,
and the OS scheduler samples a vanishingly small corner of the
interleaving space.  The explorer widens the sample: it installs a
preemption hook at every instrumented synchronisation operation and,
driven entirely by a ``numpy.random.SeedSequence``, makes low-priority
threads yield the CPU at randomized points — the probabilistic
concurrency testing (PCT) recipe of randomized priorities plus a few
priority-change points, adapted to preemption points we control
(instrumented operations) rather than every instruction.

Everything random derives from the seed: per-thread priorities, the
yield decisions, the sleep jitter.  Perturbation decisions are keyed by
``(thread role, per-thread op counter)``, not by global order, so a
given seed injects the same delays into the same threads no matter how
the OS interleaves them — which is what makes a failing schedule
**replayable from its seed alone** (``explore --seed S`` twice produces
byte-identical verdicts).

Each explored schedule runs one resilient-CG solve in a chosen runtime
cell with the sanitizer on, then checks the two invariants that define
this repo: the solution must stay bit-identical to the unperturbed
reference cell, and the detector must find nothing — no race and no
lock-order cycle.
"""

from __future__ import annotations

import hashlib
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.manager import make_strategy
from repro.faults.injector import Injection
from repro.faults.scenarios import multi_error_scenario
from repro.matrices.laplacian import laplacian_2d
from repro.matrices.stencil import stencil_rhs
from repro.sanitize import detector, instrument
from repro.solvers.resilient_cg import ResilientCG, SolverConfig

#: Fraction of visited preemption points where a thread may yield.
DEFAULT_PREEMPT_RATE = 0.15
#: Longest injected delay, seconds (scaled down by thread priority).
DEFAULT_MAX_SLEEP = 0.002


class ScheduleExplorer:
    """The preemption hook: seeded, per-thread-deterministic delays."""

    def __init__(self, seed: np.random.SeedSequence,
                 preempt_rate: float = DEFAULT_PREEMPT_RATE,
                 max_sleep: float = DEFAULT_MAX_SLEEP) -> None:
        self.seed = seed
        self.preempt_rate = float(preempt_rate)
        self.max_sleep = float(max_sleep)
        self._rngs: Dict[str, np.random.Generator] = {}
        self._priorities: Dict[str, float] = {}
        self._lock = threading.Lock()
        self.preemptions = 0

    def _state_for(self, thread: str):
        with self._lock:
            rng = self._rngs.get(thread)
            if rng is None:
                # Key the stream by the thread's *role name* (stable
                # across runs: repro-exec-0, repro-rank-1, ...), never
                # by its OS identity.
                child = np.random.SeedSequence(
                    entropy=self.seed.entropy,
                    spawn_key=(*self.seed.spawn_key,
                               zlib.crc32(thread.encode("utf-8"))))
                rng = self._rngs[thread] = np.random.default_rng(child)  # repro-lint: allow[unseeded-rng] explorer streams perturb schedules, never iterates; keyed to the explore seed, not the trial tree
                self._priorities[thread] = float(rng.random())
            return rng, self._priorities[thread]

    def __call__(self, thread: str, op: str, obj: str) -> None:
        rng, priority = self._state_for(thread)
        if rng.random() >= self.preempt_rate:
            return
        # PCT flavour: the lower a thread's drawn priority, the longer
        # it yields, so high-priority threads overtake it here.
        delay = self.max_sleep * (1.0 - priority) * rng.random()
        with self._lock:
            self.preemptions += 1
        if delay > 0:
            time.sleep(delay)

    def install(self) -> None:
        instrument.set_preemption_hook(self)

    @staticmethod
    def uninstall() -> None:
        instrument.set_preemption_hook(None)


# ----------------------------------------------------------------------
# the explored workload
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExploreProblem:
    """The (small, fixed) solve every schedule runs."""

    points: int = 16
    page_size: int = 32
    tolerance: float = 1e-8

    def build(self):
        A = laplacian_2d(self.points)
        b = stencil_rhs(A, kind="random", seed=7)
        return A, b


def _solve_cell(problem: ExploreProblem, scheduler: str, placement: str,
                clock: str, ranks: int):
    A, b = problem.build()
    num_pages = max(1, A.shape[0] // problem.page_size)
    scenario = multi_error_scenario(
        [Injection(time=1e-4, vector="x", page=num_pages // 2)],
        name="sanitize-explore")
    cfg = SolverConfig(page_size=problem.page_size,
                       tolerance=problem.tolerance,
                       record_history=False, pace=0.0,
                       scheduler=scheduler, placement=placement,
                       clock=clock, ranks=ranks)
    with ResilientCG(A, b, strategy=make_strategy("AFEIR"),
                     scenario=scenario, config=cfg) as solver:
        result = solver.solve()
    return result


def solution_token(result) -> str:
    """Content hash of everything bit-identity promises: the iterate
    vector, the iteration count and the simulated solve time."""
    digest = hashlib.sha256()
    digest.update(result.x.tobytes())
    digest.update(int(result.record.iterations).to_bytes(8, "little"))
    digest.update(np.float64(result.record.solve_time).tobytes())
    return digest.hexdigest()


def reference_token(problem: ExploreProblem) -> str:
    """The unperturbed reference cell's token (list/local/simulated)."""
    return solution_token(_solve_cell(problem, "list", "local",
                                      "simulated", 1))


def explore_schedule(problem: ExploreProblem, seed: int, schedule: int,
                     scheduler: str, placement: str, clock: str,
                     ranks: int, ref_token: str,
                     preempt_rate: float = DEFAULT_PREEMPT_RATE
                     ) -> Dict[str, object]:
    """Run one seeded schedule; returns its (deterministic) verdict.

    The verdict deliberately contains no wall-clock quantities and no
    raw event counts (condition-wait wakeups vary run to run); every
    field is a pure function of the seed and the solve.
    """
    child = np.random.SeedSequence(entropy=[int(seed), int(schedule)])
    explorer = ScheduleExplorer(child, preempt_rate=preempt_rate)
    with instrument.enabled(True):
        instrument.reset()
        explorer.install()
        try:
            result = _solve_cell(problem, scheduler, placement, clock,
                                 ranks)
        finally:
            explorer.uninstall()
        report = detector.analyze()
        instrument.reset()
    token = solution_token(result)
    return {
        "schedule": schedule,
        "seed": int(seed),
        "fingerprint": token,
        "bit_identical": token == ref_token,
        "iterations": int(result.record.iterations),
        "accesses": report.accesses,
        "races": [
            {"resource": r.resource, "access": r.access,
             "first": r.first.location, "second": r.second.location}
            for r in report.races],
        "lock_cycles": len(report.lock_cycles),
    }


def explore(seed: int, schedules: int, *, scheduler: str = "threaded",
            placement: str = "local", clock: str = "wall", ranks: int = 1,
            points: int = 16, page_size: int = 32,
            preempt_rate: float = DEFAULT_PREEMPT_RATE,
            progress: Optional[callable] = None) -> Dict[str, object]:
    """Run ``schedules`` seeded schedules of one runtime cell."""
    problem = ExploreProblem(points=points, page_size=page_size)
    ref = reference_token(problem)
    records: List[Dict[str, object]] = []
    for index in range(schedules):
        record = explore_schedule(problem, seed, index, scheduler,
                                  placement, clock, ranks, ref,
                                  preempt_rate=preempt_rate)
        records.append(record)
        if progress is not None:
            progress(record)
    broken = [r["schedule"] for r in records if not r["bit_identical"]]
    racy = [r["schedule"] for r in records
            if r["races"] or r["lock_cycles"]]
    return {
        "kind": "sanitize-explore",
        "seed": int(seed),
        "cell": {"scheduler": scheduler, "placement": placement,
                 "clock": clock, "ranks": int(ranks)},
        "problem": {"points": points, "page_size": page_size,
                    "n": points * points},
        "reference_fingerprint": ref,
        "schedules": records,
        "bit_identity_broken": broken,
        "racy_schedules": racy,
        "ok": not broken and not racy,
    }
