"""The campaign service daemon.

A long-running process that amortises campaign startup cost across
submissions: one persistent process pool (the campaign executor
protocol, :class:`~repro.campaign.executors.ProcessPoolExecutor`) is
forked and warmed in :meth:`CampaignService.start` — before the HTTP
socket is bound and before any ``service-*`` thread exists — and lives
until :meth:`CampaignService.shutdown` joins and reaps it.  Every tier
of caching is the campaign engine's one
:class:`~repro.campaign.store.CampaignCache` (RAM over the
:class:`~repro.campaign.store.CampaignStore`): each child keeps built
matrices and fault-free ideal baselines in its process's instance,
exactly as offline pool workers do, and the daemon holds one for its
lifetime as its tier of completed trials (keyed by the store's content
addresses).  It multiplexes submitted campaigns over the pool as
round-robin shard jobs — one ``service-worker`` thread per shard, which
only waits on the child's future — and streams per-trial progress to
``watch`` clients as chunked JSONL.

Robustness model (asynchronous-HPC serving practice: worker loss is
routine, not fatal):

* every finished trial is persisted to the store by the child that ran
  it *before* the daemon hears of it, and enters the in-memory trial
  tier the moment the daemon does, so nothing a worker finished is ever
  recomputed;
* a pool process that exits or is killed mid-trial breaks the stdlib
  pool (``BrokenProcessPool`` on every in-flight future), which the
  daemon maps to :class:`WorkerDied`: the pool is rebuilt once per
  break, every affected shard is re-queued, and the retry consults the
  trial tier and the store first, so only the genuinely lost in-flight
  trials re-execute;
* a daemon crash loses only in-flight trials: the store journal and
  per-trial persistence make a restarted daemon (or an offline
  ``python -m repro.campaign run``) resume from the last persisted
  trial;
* graceful shutdown (``/shutdown``) stops accepting submissions, then
  either drains every queued/running job or cancels them after their
  current trial, journalling an ``interrupted`` event either way; it
  closes the listening socket, joins the ``service-*`` threads and the
  pool — no thread, socket or child outlives the daemon.

Correctness anchor: a campaign executed through the daemon produces a
fingerprint **byte-identical** to the same spec run offline, because
trials are self-contained deterministic units (content-keyed seeds) and
:class:`~repro.campaign.results.CampaignResult` aggregation is
order-independent.  The service tests and the ``campaign-service`` CI
job assert it.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional

# run_trial is not called here (the runner calls it in the child); the
# name stays bound because bench/test_bench.py, which this repo's PRs may
# not edit, checks that its tracer re-binds it in this module.
from repro.campaign.engine import TrialRunner, run_trial  # noqa: F401
from repro.campaign.executors import ProcessPoolExecutor
from repro.campaign.results import CampaignResult, TrialResult
from repro.campaign.spec import CampaignSpec, TrialSpec
from repro.campaign.store import CampaignCache, CampaignStore
from repro.config import resolve_worker_count
from repro.sanitize import (make_condition, make_event, make_lock,
                            make_queue, make_rlock)
from repro.service.protocol import (PROTOCOL_VERSION, TERMINAL_STATES,
                                    ProtocolError, describe_states,
                                    event_line, job_status_payload,
                                    spec_from_payload, validate_job_id)

#: Environment variables of the service (documented in the README's
#: ``REPRO_*`` table).
SERVICE_HOST_ENV = "REPRO_SERVICE_HOST"
SERVICE_PORT_ENV = "REPRO_SERVICE_PORT"
SERVICE_URL_ENV = "REPRO_SERVICE_URL"
SERVICE_CHAOS_ENV = "REPRO_SERVICE_CHAOS"

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642

#: A shard is re-queued at most this many times before its job fails.
MAX_SHARD_RETRIES = 3


def default_host() -> str:
    return os.environ.get(SERVICE_HOST_ENV, "").strip() or DEFAULT_HOST


def default_port() -> int:
    raw = os.environ.get(SERVICE_PORT_ENV, "").strip()
    if not raw:
        return DEFAULT_PORT
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SERVICE_PORT_ENV} must be an integer, "
                         f"got {raw!r}") from None


class WorkerDied(RuntimeError):
    """A pool process was lost mid-shard (chaos hook, or a real crash)."""


def _die(trial: TrialSpec) -> None:
    """What the chaos hook runs in place of a trial: the child that
    receives it exits hard, as an OOM kill or a segfault would."""
    os._exit(1)


class ChaosMonkey:
    """Deterministic worker-loss injection for tests and the CI job.

    ``REPRO_SERVICE_CHAOS=kill-worker:N`` makes the pool process that
    receives the N-th trial the daemon dispatches exit hard (once) —
    exercising the broken-pool, rebuild and shard-retry path end to end.
    """

    def __init__(self, kill_after: int):
        if kill_after <= 0:
            raise ValueError(f"chaos kill-after must be positive, "
                             f"got {kill_after}")
        self.kill_after = kill_after
        self._dispatched = 0
        self._lock = make_lock("ChaosMonkey.lock")

    @classmethod
    def from_env(cls) -> Optional["ChaosMonkey"]:
        raw = os.environ.get(SERVICE_CHAOS_ENV, "").strip()
        if not raw:
            return None
        kind, _, arg = raw.partition(":")
        if kind != "kill-worker":
            raise ValueError(f"{SERVICE_CHAOS_ENV} must look like "
                             f"kill-worker:N, got {raw!r}")
        return cls(int(arg))

    def strikes(self) -> bool:
        """Count one dispatched trial; true for the N-th, exactly once."""
        with self._lock:
            self._dispatched += 1
            return self._dispatched == self.kill_after


# ----------------------------------------------------------------------
# jobs
# ----------------------------------------------------------------------
@dataclass
class Job:
    """One submitted campaign and its live progress."""

    id: str
    spec: CampaignSpec
    state: str = "queued"
    total: int = 0
    cached: int = 0
    executed: int = 0
    completed: int = 0
    shards: int = 0
    shard_retries: int = 0
    fingerprint: Optional[str] = None
    error: Optional[str] = None
    results: List[TrialResult] = field(default_factory=list)
    #: Trial indices already folded into ``results`` — a retried shard
    #: must not double-count what the dead worker persisted.
    recorded: set = field(default_factory=set)
    events: List[dict] = field(default_factory=list)
    pending_shards: int = 0
    finalizing: bool = False
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    cancel_event: threading.Event = field(default_factory=make_event)
    cond: threading.Condition = field(default_factory=make_condition)

    @property
    def spec_key(self) -> str:
        return self.spec.store_key()

    @property
    def name(self) -> str:
        return self.spec.name

    def emit(self, event: dict) -> None:
        """Append an event and wake every watcher."""
        with self.cond:
            self.events.append({"job": self.id, **event})
            self.cond.notify_all()

    def set_state(self, state: str) -> None:
        with self.cond:
            self.state = state
            self.cond.notify_all()


@dataclass
class _ShardTask:
    job_id: str
    shard_no: int
    trials: List[TrialSpec]
    attempt: int = 0


# ----------------------------------------------------------------------
# the daemon
# ----------------------------------------------------------------------
class CampaignService:
    """The long-running campaign daemon (HTTP server + process pool).

    Constructing one creates no process, thread or socket; :meth:`start`
    does.  ``port=0`` binds an ephemeral port (tests); the bound port is
    in ``self.port`` after :meth:`start`.  ``store=None`` runs with the
    in-memory trial tier only — nothing persists, but warm-resubmission
    semantics are identical.
    """

    def __init__(self, host: Optional[str] = None, port: Optional[int] = None,
                 workers: Optional[int] = None,
                 store: Optional[CampaignStore] = None,
                 chaos: Optional[ChaosMonkey] = None):
        self.host = host if host is not None else default_host()
        self.port = port if port is not None else default_port()
        self.workers = resolve_worker_count(workers)
        #: The daemon's trial tier: the campaign cache, held for its
        #: lifetime.  Pool children resolve the runner to their own.
        self.cache = CampaignCache(store)
        self.chaos = chaos if chaos is not None else ChaosMonkey.from_env()
        self._runner = TrialRunner(self.cache)
        self._pool = ProcessPoolExecutor(self.workers)
        #: Bumped by every rebuild, so the shard threads that all see one
        #: break replace the pool once.
        self._pool_generation = 0
        self.started = time.time()
        self.accepting = True
        self.worker_deaths = 0
        self.executed_total = 0
        self.cached_total = 0
        self.executed_wall = 0.0
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._counter = 0
        self._lock = make_rlock("CampaignService.lock")
        self._drained = make_condition(self._lock,
                                       name="CampaignService.drained")
        self._job_queue = make_queue("CampaignService.job_queue")
        self._shard_queue = make_queue("CampaignService.shard_queue")
        self._threads: List[threading.Thread] = []
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._stopped = make_event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Fork and warm the pool, bind the HTTP server, start the
        scheduler and one shard thread per pool process — in that order,
        so every child is forked from a quiet process and inherits
        neither the listening socket nor a lock some thread holds."""
        self._pool.open()
        try:
            self._httpd = ThreadingHTTPServer((self.host, self.port),
                                              _make_handler(self))
        except BaseException:
            self._pool.close()
            raise
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._threads = [
            threading.Thread(target=self._serve_http, name="service-http",
                             daemon=True),
            threading.Thread(target=self._scheduler_loop,
                             name="service-scheduler", daemon=True),
        ]
        for i in range(self.workers):
            self._threads.append(threading.Thread(
                target=self._worker_loop, name=f"service-worker-{i}",
                daemon=True))
        for thread in self._threads:
            thread.start()

    def _serve_http(self) -> None:
        # shutdown() waits out one poll of this loop, so keep it short.
        self._httpd.serve_forever(poll_interval=0.02)

    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Block until the daemon is shut down (CLI foreground mode)."""
        try:
            self._stopped.wait()
        except KeyboardInterrupt:
            self.shutdown(drain=False)

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Stop the daemon and everything it started.

        ``drain=True`` finishes every queued and running job first;
        ``drain=False`` cancels them after their current trial (the
        in-flight future is awaited, not abandoned).  Either way
        in-flight jobs are journalled, so a subsequent daemon (or an
        offline run) resumes from the last persisted trial.  Then the
        listening socket is closed, the ``service-*`` threads are joined
        (within ``timeout``, which also bounds the drain) and the pool's
        children are joined and reaped.  A second call only waits for
        the first to finish.
        """
        with self._lock:
            first = self.accepting
            self.accepting = False
        if not drain:
            self._cancel_unfinished()
        if not first:
            self._stopped.wait(timeout=timeout)
            return
        deadline = None if timeout is None else time.time() + timeout

        def remaining() -> Optional[float]:
            return (None if deadline is None
                    else max(0.0, deadline - time.time()))

        with self._drained:
            while any(j.state not in TERMINAL_STATES
                      for j in self._jobs.values()):
                left = remaining()
                if left == 0.0:
                    break
                self._drained.wait(timeout=0.5 if left is None else left)
        for job in self._snapshot_jobs():
            if job.state not in TERMINAL_STATES:
                self._journal(job, {"event": "interrupted",
                                    "completed": job.completed,
                                    "state": job.state})
        # Out of time with work still running: let it stop after the
        # current trial rather than submit to a closed pool.
        self._cancel_unfinished()
        self._job_queue.put(None)
        for _ in range(self.workers):
            self._shard_queue.put(None)
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        for thread in self._threads:
            thread.join(timeout=remaining())
        with self._lock:
            # A break seen from here on rebuilds nothing.
            self._pool_generation += 1
            self._pool.close()
        self._stopped.set()

    def _cancel_unfinished(self) -> None:
        for job in self._snapshot_jobs():
            if job.state not in TERMINAL_STATES:
                job.cancel_event.set()

    # ------------------------------------------------------------------
    # submission + queries
    # ------------------------------------------------------------------
    def submit_payload(self, payload: dict) -> Job:
        spec = spec_from_payload(payload)
        return self.submit(spec)

    def submit(self, spec: CampaignSpec) -> Job:
        with self._lock:
            if not self.accepting:
                raise ProtocolError("daemon is shutting down; "
                                    "not accepting submissions")
            self._counter += 1
            job = Job(id=f"j{self._counter}-{spec.store_key()[:8]}",
                      spec=spec, total=spec.num_trials)
            self._jobs[job.id] = job
            self._order.append(job.id)
        job.emit({"event": "queued", "spec": spec.describe(),
                  "spec_key": job.spec_key})
        self._job_queue.put(job.id)
        return job

    def job(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """All jobs, newest first."""
        with self._lock:
            return [self._jobs[jid] for jid in reversed(self._order)]

    def _snapshot_jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def cancel(self, job_id: str) -> Optional[Job]:
        job = self.job(job_id)
        if job is None:
            return None
        if job.state not in TERMINAL_STATES:
            job.cancel_event.set()
            if job.state == "queued":
                self._finalize(job, "cancelled")
        return job

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, object]:
        jobs = self._snapshot_jobs()
        store = self.cache.store
        per_sec = (self.executed_total / self.executed_wall
                   if self.executed_wall > 0 else 0.0)
        return {
            "version": PROTOCOL_VERSION,
            "uptime_s": round(time.time() - self.started, 3),
            "accepting": self.accepting,
            "workers": self.workers,
            "worker_deaths": self.worker_deaths,
            "shard_retries": sum(j.shard_retries for j in jobs),
            "queue_depth": sum(1 for j in jobs if j.state == "queued"),
            "jobs": describe_states(jobs),
            "cache": {"trials": self.cache.counts("trials")},
            "trials": {
                "executed": self.executed_total,
                "cached": self.cached_total,
                "completed": self.executed_total + self.cached_total,
                "executed_wall_s": round(self.executed_wall, 3),
                "per_worker_per_sec": round(per_sec, 3),
            },
            "store": str(store.root) if store is not None else None,
            "jobs_detail": {
                j.id: {"state": j.state, "completed": j.completed,
                       "total": j.total} for j in jobs},
        }

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _journal(self, job: Job, event: dict) -> None:
        self.cache.journal_append(job.spec_key, {
            "key": job.spec_key, "source": "service", "job": job.id,
            **event})

    def _scheduler_loop(self) -> None:
        while True:
            job_id = self._job_queue.get()
            if job_id is None:
                return
            job = self._jobs[job_id]
            if job.state in TERMINAL_STATES:  # cancelled while queued
                continue
            try:
                self._prepare(job)
            except Exception as exc:  # noqa: BLE001 - job-fatal, not daemon-fatal
                job.error = f"{type(exc).__name__}: {exc}"
                self._finalize(job, "failed")

    def _prepare(self, job: Job) -> None:
        """Expand the grid, serve cached trials, shard out the rest."""
        job.started_at = time.time()
        job.set_state("running")
        trials = job.spec.expand()
        pending: List[TrialSpec] = []
        for trial in trials:
            if job.cancel_event.is_set():
                self._finalize(job, "cancelled")
                return
            cached = self.cache.get_trial(trial.store_key())
            if cached is not None:
                self._record_result(job, cached, cached_hit=True)
            else:
                pending.append(trial)
        shards = max(1, min(self.workers, len(pending)))
        job.shards = shards if pending else 0
        self._journal(job, {"event": "start", "spec": job.spec.describe(),
                            "total": job.total, "shard": None,
                            "cached": job.cached, "pending": len(pending)})
        job.emit({"event": "start", "total": job.total, "cached": job.cached,
                  "pending": len(pending), "shards": job.shards})
        if not pending:
            self._finalize(job, "done")
            return
        with self._lock:
            job.pending_shards = shards
        for shard_no in range(shards):
            # Round-robin over the pending list: balanced cell mix per
            # shard, same policy as the offline --shard i/N partition.
            shard = pending[shard_no::shards]
            self._shard_queue.put(_ShardTask(job.id, shard_no, shard))

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            task = self._shard_queue.get()
            if task is None:
                return
            job = self._jobs[task.job_id]
            try:
                self._run_shard(job, task)
            except WorkerDied as exc:
                self._retry_shard(job, task, str(exc))
            except Exception as exc:  # noqa: BLE001 - fail the job, keep the pool
                job.error = f"{type(exc).__name__}: {exc}"
                job.cancel_event.set()
                self._shard_done(job)

    def _run_shard(self, job: Job, task: _ShardTask) -> None:
        """Run one shard's trials on the pool, one future at a time.

        The retry path re-enters here with the same trial list: trials a
        previous attempt recorded are skipped, trials a lost child had
        persisted come back from the store, so only genuinely lost work
        re-executes.
        """
        with self._lock:
            # Only this shard's attempts record these indices, and they
            # never overlap, so one look is exact for the whole attempt.
            trials = [t for t in task.trials if t.index not in job.recorded]
        for trial in trials:
            if job.cancel_event.is_set():
                break
            key = trial.store_key()
            cached = self.cache.get_trial(key)
            if cached is not None:
                # Persisted by a lost worker before it was recorded, or
                # warmed by a duplicate submission running concurrently.
                self._record_result(job, cached, cached_hit=False,
                                    recovered=True)
                continue
            result = self._execute(trial)
            # The child persisted it before the daemon heard of it.
            self.cache.keep_trial(key, result)
            self._journal(job, {"event": "trial", "index": result.index})
            self._record_result(job, result, cached_hit=False)
        self._shard_done(job)

    def _execute(self, trial: TrialSpec) -> TrialResult:
        """One trial on a pool child; the calling shard thread only
        waits.  A child lost while the future was in flight (this
        trial's or another shard's — the stdlib pool breaks as a whole)
        surfaces as :class:`WorkerDied`, after the pool is rebuilt."""
        fn = self._runner
        if self.chaos is not None and self.chaos.strikes():
            fn = _die
        try:
            with self._lock:
                generation = self._pool_generation
                future = self._pool.submit(fn, trial)
            return future.result()
        except BrokenProcessPool as exc:
            self._rebuild_pool(generation)
            raise WorkerDied(f"a pool process died with trial "
                             f"{trial.index} in flight") from exc

    def _rebuild_pool(self, generation: int) -> None:
        """Replace the broken pool — once per break, however many shard
        threads saw it.  The daemon has threads by now, so the new
        children are spawned, not forked."""
        with self._lock:
            if generation != self._pool_generation:
                return
            self._pool_generation += 1
            self.worker_deaths += 1
            self._pool.close()
            self._pool.open(mp_context=multiprocessing.get_context("spawn"))

    def _retry_shard(self, job: Job, task: _ShardTask, reason: str) -> None:
        if task.attempt + 1 > MAX_SHARD_RETRIES:
            job.error = (f"shard {task.shard_no} lost its worker "
                         f"{task.attempt + 1} times; giving up ({reason})")
            job.cancel_event.set()
            self._shard_done(job)
            return
        with self._lock:
            job.shard_retries += 1
        job.emit({"event": "shard-retry", "shard": task.shard_no,
                  "attempt": task.attempt + 1, "reason": reason})
        self._shard_queue.put(_ShardTask(job.id, task.shard_no, task.trials,
                                         attempt=task.attempt + 1))

    def _record_result(self, job: Job, result: TrialResult,
                       cached_hit: bool, recovered: bool = False) -> None:
        with self._lock:
            if result.index in job.recorded:  # pragma: no cover - raced retry
                return
            job.recorded.add(result.index)
            job.results.append(result)
            job.completed += 1
            if cached_hit:
                job.cached += 1
                self.cached_total += 1
            else:
                job.executed += 1
                if not recovered:
                    self.executed_total += 1
                    self.executed_wall += result.wall_time
            completed, total = job.completed, job.total
        job.emit({"event": "trial", "index": result.index,
                  "matrix": result.matrix, "method": result.method,
                  "rate": result.rate, "repetition": result.repetition,
                  "converged": result.converged,
                  "iterations": result.iterations,
                  "cached": cached_hit, "recovered": recovered,
                  "completed": completed, "total": total})

    def _shard_done(self, job: Job) -> None:
        with self._lock:
            job.pending_shards -= 1
            last = job.pending_shards <= 0
        if not last:
            return
        if job.error is not None:
            self._finalize(job, "failed")
        elif job.cancel_event.is_set():
            self._finalize(job, "cancelled")
        elif job.completed == job.total:
            self._finalize(job, "done")
        else:  # pragma: no cover - defensive: lost results are a bug
            job.error = (f"job finished its shards with "
                         f"{job.completed}/{job.total} trials accounted for")
            self._finalize(job, "failed")

    def _finalize(self, job: Job, state: str) -> None:
        with self._lock:
            # A cancel racing the scheduler may reach here twice; the
            # first transition wins.
            if job.finalizing:
                return
            job.finalizing = True
        job.finished_at = time.time()
        if state == "done":
            job.fingerprint = self.result_of(job).fingerprint()
            self._journal(job, {"event": "done", "executed": job.executed,
                                "cached": job.cached,
                                "fingerprint": job.fingerprint})
            job.emit({"event": "done", "fingerprint": job.fingerprint,
                      "executed": job.executed, "cached": job.cached,
                      "wall_s": round(job.finished_at - job.submitted_at, 3)})
        else:
            self._journal(job, {"event": state, "completed": job.completed,
                                "error": job.error})
            job.emit({"event": state, "error": job.error,
                      "completed": job.completed})
        job.set_state(state)
        with self._drained:
            self._drained.notify_all()

    def result_of(self, job: Job) -> CampaignResult:
        """The job's :class:`CampaignResult` (order-independent, so the
        fingerprint is byte-identical to the offline runner's)."""
        result = CampaignResult(name=job.spec.name,
                                executor=f"service({self.workers} workers)",
                                spec_key=job.spec_key,
                                total_trials=job.total,
                                cache_hits=job.cached,
                                executed=job.executed)
        with self._lock:
            result.extend(list(job.results))
        if job.finished_at is not None:
            result.wall_time = job.finished_at - job.submitted_at
        return result


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------
def _make_handler(service: CampaignService):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        # Silence per-request stderr lines; the daemon has /metrics.
        def log_message(self, format, *args):  # noqa: A002
            pass

        # -- helpers ---------------------------------------------------
        def _send_json(self, payload: dict, status: int = 200) -> None:
            body = (json.dumps({"version": PROTOCOL_VERSION, **payload},
                               sort_keys=True) + "\n").encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_error(self, message: str, status: int = 400) -> None:
            self._send_json({"error": message}, status=status)

        def _read_body(self) -> dict:
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b"{}"
            try:
                payload = json.loads(raw.decode("utf-8") or "{}")
            except ValueError as exc:
                raise ProtocolError(f"request body is not JSON: {exc}") \
                    from None
            if not isinstance(payload, dict):
                raise ProtocolError("request body must be a JSON object")
            return payload

        def _job_or_404(self, job_id: str):
            try:
                validate_job_id(job_id)
            except ProtocolError as exc:
                self._send_error(str(exc), status=400)
                return None
            job = service.job(job_id)
            if job is None:
                self._send_error(f"no such job {job_id!r}", status=404)
            return job

        # -- routes ----------------------------------------------------
        def do_GET(self):  # noqa: N802 - http.server API
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            if path == "/healthz":
                self._send_json({"ok": True, "uptime_s": round(
                    time.time() - service.started, 3)})
            elif path == "/metrics":
                self._send_json(service.metrics())
            elif path == "/jobs":
                self._send_json({"jobs": [job_status_payload(j)
                                          for j in service.jobs()]})
            elif path.startswith("/jobs/") and path.endswith("/watch"):
                self._watch(path.split("/")[2])
            elif path.startswith("/jobs/"):
                parts = path.split("/")
                if len(parts) == 3:
                    job = self._job_or_404(parts[2])
                    if job is not None:
                        self._send_json({"job": job_status_payload(job)})
                else:
                    self._send_error(f"unknown path {path!r}", status=404)
            else:
                self._send_error(f"unknown path {path!r}", status=404)

        def do_POST(self):  # noqa: N802 - http.server API
            path = self.path.split("?", 1)[0].rstrip("/")
            try:
                if path == "/jobs":
                    body = self._read_body()
                    job = service.submit_payload(body.get("spec"))
                    self._send_json({"job": job_status_payload(job)},
                                    status=202)
                elif path.startswith("/jobs/") and path.endswith("/cancel"):
                    job = self._job_or_404(path.split("/")[2])
                    if job is not None:
                        service.cancel(job.id)
                        self._send_json({"job": job_status_payload(job)})
                elif path == "/shutdown":
                    body = self._read_body()
                    drain = bool(body.get("drain", True))
                    self._send_json({"shutting_down": True, "drain": drain})
                    threading.Thread(target=service.shutdown,
                                     kwargs={"drain": drain},
                                     daemon=True).start()
                else:
                    self._send_error(f"unknown path {path!r}", status=404)
            except ProtocolError as exc:
                self._send_error(str(exc), status=400)

        # -- watch streaming -------------------------------------------
        def _send_chunk(self, data: bytes) -> None:
            self.wfile.write(f"{len(data):X}\r\n".encode("ascii"))
            self.wfile.write(data + b"\r\n")
            self.wfile.flush()

        def _watch(self, job_id: str) -> None:
            job = self._job_or_404(job_id)
            if job is None:
                return
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            index = 0
            try:
                while True:
                    with job.cond:
                        while (index >= len(job.events)
                               and job.state not in TERMINAL_STATES):
                            job.cond.wait(timeout=5.0)
                        fresh = job.events[index:]
                        index += len(fresh)
                        finished = (job.state in TERMINAL_STATES
                                    and index >= len(job.events))
                    for event in fresh:
                        self._send_chunk(
                            (event_line(event) + "\n").encode("utf-8"))
                    if not fresh and not finished:
                        self._send_chunk(b"\n")  # keep-alive
                    if finished:
                        break
                self.wfile.write(b"0\r\n\r\n")
                self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                pass  # watcher went away; the job does not care

    return Handler
