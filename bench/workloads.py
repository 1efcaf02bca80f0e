"""The five workloads.

All are closed loops with one load-generating thread.  Every input
(campaign seed, right-hand side, injection placement) derives from the
``--seed`` argument through :func:`derive`; the program under test only
ever sees the generated inputs.  Sizes are fixed; ``--seconds`` decides
how many identical repeats are measured.

Only the non-deprecated public surface of ``repro`` is used — the
``scheduler=``/``placement=``/``clock=`` axes, never ``backend=``,
``make_backend`` or ``clear_caches`` — so those can be deleted without
touching the benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from bench.harness import Repeat, Workload
from repro import ResilientCG, SolverConfig, make_strategy
from repro.campaign import (CampaignSpec, CampaignStore, MatrixSpec,
                            SerialExecutor, SolverKnobs, run_campaign)
from repro.faults.injector import Injection
from repro.faults.scenarios import multi_error_scenario
from repro.matrices.stencil import poisson_3d_27pt, stencil_rhs
from repro.sanitize import enabled as sanitizer_on
from repro.sanitize import instrument
from repro.service.client import ServiceClient
from repro.service.server import CampaignService

TOLERANCE = 1e-8


def derive(seed: int, *parts: object) -> int:
    """A 32-bit input seed derived from ``--seed`` and a purpose."""
    token = "/".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(token.encode()).digest()[:4], "big")


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


# ======================================================================
# campaign plane
# ======================================================================
#: The grid every campaign-plane workload runs: one 400-unknown matrix,
#: the paper's four recovery methods, three error rates.
METHODS = ("FEIR", "AFEIR", "Lossy", "ckpt")
RATES = (1.0, 5.0, 20.0)
EXACT_METHODS = ("FEIR", "AFEIR")


#: Grid repetitions: 60 trials.  The three campaign-plane workloads run
#: the same spec, so executing it offline (campaign_cold), re-reading it
#: (campaign_warm) and doing either through the daemon (service_jobs)
#: are the same work and their figures can be set side by side.  Fewer
#: trials would leave the figures to the fault draws: over ten seeds the
#: median trial latency of a 24-trial pass spread 20 % with the host's
#: noise taken out, that of a 60-trial pass 7 %.
REPETITIONS = 5


def campaign_spec(seed: int, variant: int,
                  repetitions: int = REPETITIONS) -> CampaignSpec:
    matrix = MatrixSpec.parametric("laplacian2d", nx=20, ny=20,
                                   rhs_seed=derive(seed, "rhs", variant))
    return CampaignSpec(
        matrices=[matrix], methods=METHODS, rates=RATES,
        repetitions=repetitions, seed=derive(seed, "campaign", variant),
        knobs=SolverKnobs(tolerance=TOLERANCE, max_iterations=4000,
                          page_size=50),
        name="bench")


def _iterations(result) -> int:
    """CG iterations of a campaign's trials: the work its executed trials
    did.  Throughput counts these, not trials, because a trial's length
    follows its fault draws and so the seed; an iteration's does not."""
    return sum(trial.iterations for trial in result.trials)


def _diverged_exact_trials(trials) -> List[str]:
    """FEIR/AFEIR recover exactly, so one that diverges is a failure."""
    return [f"{t.method} trial {t.index} (rate {t.rate:g}) diverged"
            for t in trials if t.method in EXACT_METHODS and not t.converged]


class CampaignCold(Workload):
    name = "campaign_cold"
    why = ("the fault-injection trial plane users wait on: every trial "
           "executes and persists; graph rebuild + list schedule dominate")

    #: Grid repetitions of the warm-up pass that fills the in-process
    #: problem/baseline caches, as a real campaign does once.
    WARMUP_REPETITIONS = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self._stores = itertools.count()

    def _fresh_store(self) -> CampaignStore:
        return CampaignStore(self.workdir / f"store-{next(self._stores)}")

    def setup(self, variant: int) -> None:
        self.spec = campaign_spec(self.seed, variant)
        warmup = campaign_spec(self.seed, variant, self.WARMUP_REPETITIONS)
        store = self._fresh_store()
        run_campaign(warmup, SerialExecutor(), store=store)
        shutil.rmtree(store.root)

    def repeat(self) -> Repeat:
        store = self._fresh_store()
        parts: List[float] = []
        trials: List[object] = []
        started = [time.perf_counter()]

        def progress(trial, done, total) -> None:
            parts.append(time.perf_counter() - started[0])
            trials.append(trial)
            self.tick()
            started[0] = time.perf_counter()

        result = run_campaign(self.spec, SerialExecutor(), store=store,
                              progress=progress)
        # Closing the campaign (journal, aggregation) goes to the last trial;
        # the first carries the store look-ups and the journal's start record.
        parts[-1] += time.perf_counter() - started[0]
        problems = _diverged_exact_trials(result.trials)
        failed = len(problems)
        if result.executed != len(trials) or result.cache_hits:
            failed = len(trials)
            problems.append(f"cold pass executed {result.executed} of "
                            f"{len(trials)} trials ({result.cache_hits} cached)")
        written = _tree_bytes(store.root)
        shutil.rmtree(store.root)
        # The latency is that of a FEIR/AFEIR trial at the lowest rate.  The
        # grid's trials are of three sizes, one per rate, so a median over
        # more of them falls in a gap between two sizes and moves with the
        # seed: over ten seeds that of all 30 FEIR/AFEIR trials spread
        # 13.5 %, that of these ten 6.5 %.
        return Repeat(work_s=parts, ops=[t.iterations for t in trials],
                      latency_s=[part for part, trial
                                 in zip(parts, trials, strict=True)
                                 if trial.method in EXACT_METHODS
                                 and trial.rate == min(RATES)],
                      attempted=len(trials), failed=failed, problems=problems,
                      fingerprint=result.fingerprint(),
                      samples={"campaign.engine.trial_ms":
                               [1e3 * part for part in parts],
                               "campaign.engine.trials_per_s":
                               [len(trials) / sum(parts)],
                               "campaign.store.bytes_written": [written]})


class CampaignWarm(Workload):
    name = "campaign_warm"
    why = ("the incremental-campaign path: an unchanged spec re-run against "
           "a populated store executes nothing; spec, store reads, "
           "aggregation and two fsync'd journal appends are all of it")

    def setup(self, variant: int) -> None:
        self.spec = campaign_spec(self.seed, variant)
        self.store = CampaignStore(self.workdir / f"warm-{variant}")
        fill = run_campaign(self.spec, SerialExecutor(), store=self.store)
        self.fill_fingerprint = fill.fingerprint()

    def repeat(self) -> Repeat:
        started = time.perf_counter()
        result = run_campaign(self.spec, SerialExecutor(), store=self.store)
        wall = time.perf_counter() - started
        self.tick()
        trials = len(result)
        problems: List[str] = []
        if result.executed or result.cache_hits != trials:
            problems.append(f"warm pass executed {result.executed} trials, "
                            f"{result.cache_hits} of {trials} cache hits")
        fingerprint = result.fingerprint()
        if fingerprint != self.fill_fingerprint:
            problems.append("warm fingerprint differs from the fill's")
        return Repeat(work_s=[wall], ops=[trials], latency_s=[wall],
                      attempted=trials, failed=trials if problems else 0,
                      problems=problems, fingerprint=fingerprint)


# ======================================================================
# solver plane
# ======================================================================
#: The three solves of one repeat: fault-free, then each exact method
#: with the same fixed injections.
SOLVES: Tuple[Optional[str], ...] = (None, "FEIR", "AFEIR")
INJECTIONS = 12
INJECTED_VECTORS = ("x", "g", "d0", "q")


def _solve(A, b, config: SolverConfig, method: Optional[str],
           injections: Sequence[Injection]):
    """One solve, timed from solver construction to the closed runtime."""
    strategy = scenario = None
    if method is not None:
        strategy = make_strategy(method)
        scenario = multi_error_scenario(injections, name="bench")
    started = time.perf_counter()
    with ResilientCG(A, b, strategy=strategy, scenario=scenario,
                     config=config) as solver:
        result = solver.solve()
    return result, time.perf_counter() - started


def _solve_key(result) -> Tuple[bytes, int, float]:
    return (result.x.tobytes(), result.record.iterations,
            result.record.solve_time)


def _fingerprint_solves(results) -> str:
    digest = hashlib.sha256()
    for result in results:
        x, iterations, solve_time = _solve_key(result)
        digest.update(x)
        digest.update(f"|{iterations}|{solve_time.hex()}|".encode())
    return digest.hexdigest()


class _SolveWorkload(Workload):
    """Shared set-up of the two solver workloads: the 27-point Poisson
    problem, a fault-free reference solve in the list/local/simulated
    cell, and the fixed injections placed over its solve time."""

    POINTS = 0
    PAGE_SIZE = 0

    def config(self, scheduler: str, placement: str, clock: str,
               ranks: int = 1) -> SolverConfig:
        return SolverConfig(page_size=self.PAGE_SIZE, tolerance=TOLERANCE,
                            record_history=False, pace=0.0,
                            scheduler=scheduler, placement=placement,
                            clock=clock, ranks=ranks)

    def setup(self, variant: int):
        self.A = poisson_3d_27pt(self.POINTS)
        self.b = stencil_rhs(self.A, kind="random",
                             seed=derive(self.seed, "rhs", variant))
        self.b_norm = float(np.linalg.norm(self.b))
        reference_cell = self.config("list", "local", "simulated")
        ideal, _ = _solve(self.A, self.b, reference_cell, None, ())
        self.ideal_iterations = ideal.record.iterations
        pages = -(-self.A.shape[0] // self.PAGE_SIZE)
        rng = np.random.default_rng([self.seed, variant])
        self.injections = [
            Injection(time=ideal.record.solve_time * (i + 0.5) / INJECTIONS,
                      vector=INJECTED_VECTORS[i % len(INJECTED_VECTORS)],
                      page=int(rng.integers(pages)))
            for i in range(INJECTIONS)]
        return ideal

    def check_solve(self, method: Optional[str], result) -> List[str]:
        """Exact recovery pays time, not iterations or accuracy."""
        label = method or "fault-free"
        record = result.record
        problems = []
        if record.iterations != self.ideal_iterations:
            problems.append(f"{label}: {record.iterations} iterations, "
                            f"fault-free took {self.ideal_iterations}")
        if method is not None and record.faults_detected != INJECTIONS:
            problems.append(f"{label}: detected {record.faults_detected} of "
                            f"{INJECTIONS} faults")
        residual = float(np.linalg.norm(self.b - self.A @ result.x)
                         / self.b_norm)
        if not residual <= 10 * TOLERANCE:
            problems.append(f"{label}: true residual {residual:.3e} above "
                            f"{10 * TOLERANCE:.0e}")
        return problems

    def solve_cell(self, config: SolverConfig):
        """The three solves of one repeat in one runtime cell."""
        results, walls = [], []
        for method in SOLVES:
            result, wall = _solve(self.A, self.b, config, method,
                                  self.injections)
            results.append(result)
            walls.append(wall)
            self.tick()
        return results, walls


class SolveLarge(_SolveWorkload):
    name = "solve_large"
    why = ("n = 110592 with the simulated timeline cached: spmv, paged dot, "
           "axpy and page recovery dominate: where a kernel change shows "
           "and a timeline change must not")

    POINTS = 48
    PAGE_SIZE = 512

    def repeat(self) -> Repeat:
        results, walls = self.solve_cell(
            self.config("list", "local", "simulated"))
        found = [self.check_solve(method, result)
                 for method, result in zip(SOLVES, results, strict=True)]
        return Repeat(work_s=walls,
                      ops=[r.record.iterations for r in results],
                      latency_s=walls,
                      attempted=len(SOLVES),
                      failed=sum(bool(problems) for problems in found),
                      problems=[p for problems in found for p in problems],
                      fingerprint=_fingerprint_solves(results))


class SolveCells(_SolveWorkload):
    name = "solve_cells"
    why = ("n = 4096 in the wall-clock cells: the only workload where "
           "threaded dispatch and the ranks halo/allreduce do the work; "
           "same graph and kernels as the list cell")

    POINTS = 16
    PAGE_SIZE = 64
    RANKS = 2
    SANITIZER_REPEATS = 3
    _FAULT_FREE_S = "solve_cells.local_fault_free_s"
    # Not scaled: a hand-off between threads waits out the interpreter's
    # switch interval, which a slower host does not lengthen.  Between two
    # sets of ten runs the calibration kernel slowed by 17 % and this
    # workload's iterations/s by 5 %; scaled, they would have risen 11 %.
    host_scaled = False

    def setup(self, variant: int) -> None:
        ideal = super().setup(variant)
        reference_cell = self.config("list", "local", "simulated")
        self.reference = [ideal] + [
            _solve(self.A, self.b, reference_cell, method, self.injections)[0]
            for method in SOLVES[1:]]

    def _check_cell(self, label: str, results) -> List[str]:
        problems = []
        for method, result, reference in zip(SOLVES, results, self.reference,
                                             strict=True):
            if _solve_key(result) != _solve_key(reference):
                problems.append(f"{label} {method or 'fault-free'}: differs "
                                f"from the list/local/simulated reference")
        return problems

    def repeat(self) -> Repeat:
        local, local_walls = self.solve_cell(
            self.config("threaded", "local", "wall"))
        ranks, ranks_walls = self.solve_cell(
            self.config("threaded", "ranks", "wall", ranks=self.RANKS))
        problems = self._check_cell("threaded/local/wall", local)
        problems += self._check_cell("threaded/ranks/wall", ranks)
        for method, result in zip(SOLVES, ranks, strict=True):
            overlapped = (result.window_summary or {}).get(
                "halo_overlapped_recoveries", 0)
            if method == "AFEIR" and overlapped <= 0:
                problems.append("ranks AFEIR: no recovery overlapped a halo "
                                "exchange")
            if method == "FEIR" and overlapped != 0:
                problems.append(f"ranks FEIR: {overlapped} recoveries "
                                f"overlapped a halo exchange, expected 0")
        ranks_iterations = sum(r.record.iterations for r in ranks)
        return Repeat(work_s=local_walls,
                      ops=[r.record.iterations for r in local],
                      latency_s=ranks_walls,
                      attempted=2 * len(SOLVES),
                      failed=min(len(problems), 2 * len(SOLVES)),
                      problems=problems,
                      fingerprint=_fingerprint_solves(local + ranks),
                      samples={"distributed.ranks.iters_per_s":
                               [ranks_iterations / sum(ranks_walls)],
                               self._FAULT_FREE_S: [local_walls[0]]})

    def layer_values(self, untraced: List[Repeat]) -> Dict[str, float]:
        """Cost of the concurrency sanitizer on the threaded/local cell:
        wall of the fault-free solve with the sanitizer on, over its median
        with the sanitizer off.  (One solve, not the three of a repeat:
        the sanitizer slows the cell about tenfold.)"""
        off = statistics.median(
            wall for r in untraced for wall in r.samples[self._FAULT_FREE_S])
        config = self.config("threaded", "local", "wall")
        on, events = [], []
        for _ in range(self.SANITIZER_REPEATS):
            with sanitizer_on(True):
                instrument.reset()
                on.append(_solve(self.A, self.b, config, None, ())[1])
                events.append(len(instrument.LOG))
                instrument.reset()
        return {"sanitize.on_over_off": statistics.median(on) / off,
                "sanitize.events": statistics.median(events)}


# ======================================================================
# daemon plane
# ======================================================================
class ServiceJobs(Workload):
    name = "service_jobs"
    why = ("the daemon path (protocol, HTTP, scheduler and shard queues, "
           "warm cache, journal): a cold job beside campaign_cold shows the "
           "daemon tax, its resubmits give the cached-job latency")

    RESUBMITS = 25
    WORKERS = 2
    # Not kept to one CPU: a process-backed daemon would use the second
    # core, and the benchmark must be able to show that.
    one_cpu = False

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self._stores = itertools.count()
        self._stderr = io.StringIO()

    @contextlib.contextmanager
    def _daemon(self):
        """A fresh daemon on a fresh store, so every cold job is cold."""
        root = self.workdir / f"service-{next(self._stores)}"
        service = CampaignService(host="127.0.0.1", port=0,
                                  workers=self.WORKERS,
                                  store=CampaignStore(root))
        service.start()
        try:
            client = ServiceClient(service.url())
            client.wait_until_up()
            yield service, client
        finally:
            service.shutdown(drain=True)
            shutil.rmtree(root, ignore_errors=True)

    def setup(self, variant: int) -> None:
        self.spec = campaign_spec(self.seed, variant)
        # The offline run is the reference the daemon must reproduce; it
        # also fills the in-process problem/baseline caches, as the warm-up
        # pass of campaign_cold does.
        offline = run_campaign(self.spec, SerialExecutor())
        self.offline_fingerprint = offline.fingerprint()
        self.iterations = _iterations(offline)
        with self._daemon():
            pass

    def _job(self, service, client, samples: Dict[str, List[float]]):
        """Submit the spec and follow it to its terminal event."""
        started = time.perf_counter()
        job = client.submit(self.spec)
        submitted = time.perf_counter()
        first = None
        last: Dict[str, object] = {}
        for event in client.watch(job["id"]):
            if first is None:
                first = time.perf_counter()
            last = event
        wall = time.perf_counter() - started
        self.tick()
        samples["service.submit_ms"].append(1e3 * (submitted - started))
        samples["service.first_event_ms"].append(1e3 * (first - started))
        record = service.job(job["id"])
        if record is not None and record.started_at is not None:
            samples["service.queue_wait_ms"].append(
                1e3 * (record.started_at - record.submitted_at))
        return last, wall

    def _check_job(self, label: str, event: Dict[str, object],
                   executed: int) -> List[str]:
        if event.get("event") != "done":
            return [f"{label}: ended with {event.get('event')!r} "
                    f"({event.get('error')})"]
        problems = []
        if event.get("fingerprint") != self.offline_fingerprint:
            problems.append(f"{label}: fingerprint differs from the offline "
                            f"run of the same spec")
        if event.get("executed") != executed:
            problems.append(f"{label}: executed {event.get('executed')} "
                            f"trials, expected {executed}")
        return problems

    def repeat(self) -> Repeat:
        trials = self.spec.num_trials
        samples: Dict[str, List[float]] = {
            "service.submit_ms": [], "service.first_event_ms": [],
            "service.queue_wait_ms": []}
        problems: List[str] = []
        warm_walls: List[float] = []
        failed = 0
        with contextlib.redirect_stderr(self._stderr), \
                self._daemon() as (service, client):
            event, cold_wall = self._job(service, client, samples)
            found = self._check_job("cold job", event, executed=trials)
            failed += bool(found)
            problems += found
            for index in range(self.RESUBMITS):
                event, wall = self._job(service, client, samples)
                warm_walls.append(wall)
                found = self._check_job(f"resubmit {index}", event, executed=0)
                failed += bool(found)
                problems += found
            metrics = client.metrics()
        cache = metrics["cache"]["trials"]
        samples["service.warmcache.trial_hits"] = [cache["hits"]]
        samples["service.warmcache.trial_misses"] = [cache["misses"]]
        samples["service.shard_retries"] = [metrics["shard_retries"]]
        samples["service.worker_deaths"] = [metrics["worker_deaths"]]
        # The daemon's HTTP threads report an exception as a traceback on
        # stderr (a reset connection when a watcher closes, say); they are
        # counted here, not shown.
        samples["service.http_exceptions"] = [
            self._stderr.getvalue().count("Traceback (most recent call last)")]
        self._stderr.seek(0)
        self._stderr.truncate()
        samples["service.warm_ms"] = [1e3 * wall for wall in warm_walls]
        samples["service.cold_trials_per_s"] = [trials / cold_wall]
        # A job that matched the offline fingerprint ran the offline
        # run's iterations; one that did not has failed above.
        return Repeat(work_s=[cold_wall], ops=[self.iterations],
                      latency_s=warm_walls,
                      attempted=1 + self.RESUBMITS, failed=failed,
                      problems=problems,
                      fingerprint=str(event.get("fingerprint")),
                      samples=samples)


WORKLOADS = {cls.name: cls for cls in (CampaignCold, CampaignWarm, SolveLarge,
                                       SolveCells, ServiceJobs)}
