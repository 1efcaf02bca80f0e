"""The campaign service daemon.

A long-running process that amortises campaign startup cost across
submissions: one persistent process pool (the campaign executor
protocol, :class:`~repro.campaign.executors.ProcessPoolExecutor`) is
forked and warmed in :meth:`CampaignService.start` — before the HTTP
socket is bound and before any ``service-*`` thread exists — and lives
until :meth:`CampaignService.shutdown` joins and reaps it.  Every cache
tier is the engine's :class:`~repro.campaign.store.CampaignCache`: each
child keeps matrices and ideal baselines in its process's instance, as
offline pool workers do, and the daemon holds one for its lifetime as
its tier of completed trials.

What is here is the daemon's own: HTTP, the job table, the job queue,
cancel, the ``watch`` event log, ``/metrics`` and the chaos hook.  A job
*is* a :class:`~repro.campaign.engine.CampaignRun` — the cached/pending
split, recording, journal and fingerprint of an offline
``run_campaign``.  ``submit`` opens it and serves the cached trials at
once, so a warm job is done however busy the pool is; a job with trials
to run waits for the one scheduler thread, which puts every pending
trial in the pool at once (a free child takes the next) and records
each result as it completes: such jobs run one at a time, in submission
order, each spread over every child.

Robustness model (worker loss is routine, not fatal):

* every finished trial is persisted by the child that ran it *before*
  the daemon hears of it, and enters the daemon's trial tier when it
  does, so nothing a worker finished is ever recomputed;
* a pool process lost mid-trial is the pool's business
  (``campaign.executors``): it reopens itself once per break and
  resubmits what was in flight (the trials queued behind the lost one
  too), and the runner reads the store before it runs anything, so only
  the genuinely lost trials re-execute.  The daemon sees each
  resubmission pass through ``submit`` and reports it (``shard-retry``,
  ``shard_retries``; a job goes to the pool as one shard, shard 0);
* a daemon crash loses only in-flight trials: a restarted daemon (or an
  offline ``python -m repro.campaign run``) resumes from the last
  persisted trial;
* ``/shutdown`` stops accepting submissions, then drains every job or
  cancels it (journalled ``interrupted``; trials no child holds yet are
  withdrawn, those one holds awaited and recorded), closes the socket
  and joins the ``service-*`` threads and the pool: no thread, socket
  or child outlives the daemon.

Correctness anchor: a campaign executed through the daemon produces a
fingerprint **byte-identical** to the same spec run offline — the same
loop over the same deterministic trials, aggregated order-independently.
The service tests and the ``campaign-service`` CI job assert it.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional

# run_trial is not called here (the runner calls it in the child); the
# name stays bound because bench/test_bench.py, which this repo's PRs may
# not edit, checks that its tracer re-binds it in this module.
from repro.campaign.engine import CampaignRun, TrialRunner, run_trial  # noqa: F401
from repro.campaign.executors import ProcessPoolExecutor
from repro.campaign.results import TrialResult
from repro.campaign.spec import CampaignSpec, TrialSpec
from repro.campaign.store import CampaignCache, CampaignStore
from repro.config import resolve_worker_count
from repro.sanitize import (make_condition, make_event, make_queue,
                            make_rlock)
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


def default_host() -> str:
    return os.environ.get(SERVICE_HOST_ENV, "").strip() or DEFAULT_HOST


def default_port() -> int:
    raw = os.environ.get(SERVICE_PORT_ENV, "").strip()
    try:
        return int(raw) if raw else DEFAULT_PORT
    except ValueError:
        raise ValueError(f"{SERVICE_PORT_ENV} must be an integer, "
                         f"got {raw!r}") from None


def _die(trial: TrialSpec) -> None:
    """What the chaos hook runs in place of a trial: the child that
    receives it exits hard, as an OOM kill or a segfault would."""
    os._exit(1)


class ChaosMonkey:
    """Deterministic worker-loss injection for tests and the CI job.

    ``REPRO_SERVICE_CHAOS=kill-worker:N`` makes the pool process that
    receives the N-th trial the daemon submits exit hard (once) —
    exercising the broken-pool, reopen and resubmit path end to end.
    """

    def __init__(self, kill_after: int):
        if kill_after <= 0:
            raise ValueError(f"chaos kill-after must be positive, "
                             f"got {kill_after}")
        self.kill_after = kill_after
        self._dispatched = 0

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
        """Count one submitted trial; true for the N-th, exactly once.
        Only the pool's one caller, the scheduler thread, counts."""
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
    shards: int = 0
    shard_retries: int = 0
    error: Optional[str] = None
    #: The campaign itself, once ``submit`` has opened it.
    run: Optional[CampaignRun] = None
    events: List[dict] = field(default_factory=list)
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    cancel_event: threading.Event = field(default_factory=make_event)
    cond: threading.Condition = field(default_factory=make_condition)

    # Views of the spec, and of the run (zero until there is one).
    spec_key = property(lambda job: job.spec.store_key())
    name = property(lambda job: job.spec.name)
    cached = property(lambda job: getattr(job.run, "cached", 0))
    executed = property(lambda job: getattr(job.run, "executed", 0))
    completed = property(lambda job: getattr(job.run, "completed", 0))
    fingerprint = property(lambda job: getattr(job.run, "fingerprint", None))

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
class _Dispatch:
    """What the scheduler hands the pool, a job's worth at a time: one
    trial, whose it is and how often the pool has resubmitted it."""

    job: Job
    trial: TrialSpec
    attempt: int = 0

    def __str__(self) -> str:
        return str(self.trial)


class _ServicePool(ProcessPoolExecutor):
    """The daemon's pool.  Everything that reaches a child passes through
    :meth:`submit`, a resubmission after a lost worker included: that is
    where the chaos hook strikes (a resubmission is a fresh draw) and
    where a retry becomes visible to the job's watchers."""

    def __init__(self, workers: int, chaos: Optional[ChaosMonkey]):
        super().__init__(workers)
        self.chaos = chaos

    def submit(self, fn, item: _Dispatch):
        if item.attempt:  # on the scheduler thread, the only writer
            item.job.shard_retries += 1
            item.job.emit({
                "event": "shard-retry", "shard": 0,
                "attempt": item.attempt,
                "reason": f"a pool process died with {item} in flight"})
        item.attempt += 1
        if self.chaos is not None and self.chaos.strikes():
            fn = _die
        return super().submit(fn, item.trial)


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
        #: The daemon's trial tier; pool children unpickle their own.
        self.cache = CampaignCache(store)
        self._runner = TrialRunner(self.cache)
        self._pool = _ServicePool(
            self.workers,
            chaos if chaos is not None else ChaosMonkey.from_env())
        self.started = time.time()
        self.accepting = True
        self.executed_wall = 0.0
        self._jobs: Dict[str, Job] = {}  # in submission order
        self._counter = 0
        self._lock = make_rlock("CampaignService.lock")
        self._drained = make_condition(self._lock,
                                       name="CampaignService.drained")
        self._job_queue = make_queue("CampaignService.job_queue")
        self._threads: List[threading.Thread] = []
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._stopped = make_event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Fork and warm the pool, bind the HTTP server, start the HTTP
        and scheduler threads — in that order, so every child is forked
        from a quiet process and inherits neither the listening socket
        nor a lock some thread holds."""
        self._pool.open()
        try:
            self._httpd = ThreadingHTTPServer((self.host, self.port),
                                              _Handler)
        except BaseException:
            self._pool.close()
            raise
        self._httpd.service = self
        self.port = self._httpd.server_address[1]
        # shutdown() waits out one poll of the HTTP loop, so keep it short.
        loops = [("http", lambda: self._httpd.serve_forever(0.02)),
                 ("scheduler", self._scheduler_loop)]
        self._threads = [threading.Thread(target=loop, name=f"service-{name}",
                                          daemon=True)
                         for name, loop in loops]
        for thread in self._threads:
            thread.start()

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
        ``drain=False`` cancels them (a trial no child holds yet is
        withdrawn, a future one holds is awaited, not abandoned).  Either
        way in-flight jobs are journalled, so a later daemon or offline
        run resumes from the last persisted trial.  Then the listening
        socket is closed, the ``service-*`` threads are joined (within
        ``timeout``, which also bounds the drain) and the pool's children
        are joined and reaped.  A second call only waits for the first.
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
            while self._unfinished():
                left = remaining()
                if left == 0.0:
                    break
                self._drained.wait(timeout=0.5 if left is None else left)
        for job in self._unfinished():
            if job.run is not None:
                job.run.abandon("interrupted", state=job.state)
        # Out of time with work still running: wind it down.
        self._cancel_unfinished()
        self._job_queue.put(None)
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None  # it points back here: no cycle outlives us
        for thread in self._threads:
            thread.join(timeout=remaining())
        self._pool.close()
        self._stopped.set()

    def _cancel_unfinished(self) -> None:
        for job in self._unfinished():
            job.cancel_event.set()

    # ------------------------------------------------------------------
    # submission + queries
    # ------------------------------------------------------------------
    def submit(self, spec: CampaignSpec) -> Job:
        """Create the job and serve what the cache holds right away, on
        the caller's thread: a job with nothing pending is done before
        this returns, whatever the pool is busy with.  Only a job with
        trials to run waits for the scheduler."""
        with self._lock:
            if not self.accepting:
                raise ProtocolError("daemon is shutting down; "
                                    "not accepting submissions")
            self._counter += 1
            job = Job(id=f"j{self._counter}-{spec.store_key()[:8]}",
                      spec=spec, total=spec.num_trials)
            self._jobs[job.id] = job
        job.emit({"event": "queued", "spec": spec.describe(),
                  "spec_key": job.spec_key})
        job.started_at = time.time()
        job.set_state("running")
        try:
            job.run = run = CampaignRun(
                spec, self.cache, executor=f"service({self.workers} workers)",
                stamp={"source": "service", "job": job.id})
        except Exception as exc:  # noqa: BLE001 - job-fatal, not daemon-fatal
            job.error = f"{type(exc).__name__}: {exc}"
            self._finalize(job, "failed")
            return job
        for completed, cached in enumerate(run.result.trials, 1):
            self._emit_trial(job, cached, True, completed)
        job.shards = 1 if run.pending else 0  # a job is one shard, or none
        job.emit({"event": "start", "total": job.total, "cached": run.cached,
                  "pending": len(run.pending), "shards": job.shards})
        if job.shards:
            self._job_queue.put(job)
        else:
            self._finalize(job, "done")
        return job

    def job(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """All jobs, newest first."""
        return self._snapshot_jobs()[::-1]

    def _snapshot_jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def _unfinished(self) -> List[Job]:
        return [job for job in self._snapshot_jobs()
                if job.state not in TERMINAL_STATES]

    def cancel(self, job_id: str) -> Optional[Job]:
        job = self.job(job_id)
        if job is not None and job.state not in TERMINAL_STATES:
            job.cancel_event.set()
        return job

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, object]:
        jobs = self._snapshot_jobs()
        store = self.cache.store
        executed = sum(j.executed for j in jobs)
        cached = sum(j.cached for j in jobs)
        per_sec = (executed / self.executed_wall
                   if self.executed_wall > 0 else 0.0)
        return {
            "version": PROTOCOL_VERSION,
            "uptime_s": round(time.time() - self.started, 3),
            "accepting": self.accepting,
            "workers": self.workers,
            "worker_deaths": self._pool.deaths,
            "shard_retries": self._pool.resubmitted,
            "queue_depth": sum(1 for j in jobs if j.state == "queued"),
            "jobs": describe_states(jobs),
            "cache": {"trials": self.cache.counts("trials")},
            "trials": {
                "executed": executed,
                "cached": cached,
                "completed": executed + cached,
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
    def _scheduler_loop(self) -> None:
        """The pool's one caller.  Each job with trials pending, in
        submission order, hands the pool all of them at once and records
        each result as it completes.  A cancel takes effect at the next
        completion (a job cancelled while it waited its turn sends the
        pool nothing): what no child holds yet is withdrawn, what one
        does is awaited and recorded.  A lost child is the pool's
        business (``WorkerLost`` once it stops trying)."""
        while True:
            job = self._job_queue.get()
            if job is None:
                return
            items = [_Dispatch(job, trial) for trial in job.run.pending]
            try:
                for result in self._pool.run(self._runner, items,
                                             stop=job.cancel_event):
                    completed = job.run.record(result)
                    self.executed_wall += result.wall_time  # this thread only
                    self._emit_trial(job, result, False, completed)
            except Exception as exc:  # noqa: BLE001 - job-fatal, not daemon-fatal
                job.error = f"{type(exc).__name__}: {exc}"
            self._finalize(job, "failed" if job.error is not None
                           else "cancelled" if job.cancel_event.is_set()
                           else "done")

    @staticmethod
    def _emit_trial(job: Job, result: TrialResult, cached: bool,
                    completed: int) -> None:
        fields = ("index", "matrix", "method", "rate", "repetition",
                  "converged", "iterations")
        job.emit({"event": "trial", "cached": cached, "completed": completed,
                  "total": job.total,
                  **{name: getattr(result, name) for name in fields}})

    def _finalize(self, job: Job, state: str) -> None:
        """The job's one terminal transition: ``submit`` makes it for a
        job the pool never sees, the scheduler for every other."""
        run = job.run
        try:
            if state == "done":
                run.finish()
        except RuntimeError as exc:  # pragma: no cover - lost results are a bug
            job.error, state = str(exc), "failed"
        job.finished_at = time.time()
        if state == "done":
            job.emit({"event": "done", "fingerprint": run.fingerprint,
                      "executed": run.executed, "cached": run.cached,
                      "wall_s": round(job.finished_at - job.submitted_at, 3)})
        else:
            if run is not None:
                run.abandon(state, error=job.error)
            job.emit({"event": state, "error": job.error,
                      "completed": job.completed})
        job.set_state(state)
        with self._drained:
            self._drained.notify_all()


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    """The daemon's routes; the daemon is the server's, not the class's."""

    protocol_version = "HTTP/1.1"
    service = property(lambda handler: handler.server.service)

    # Silence per-request stderr lines; the daemon has /metrics.
    def log_message(self, format, *args):  # noqa: A002
        pass

    # -- helpers -------------------------------------------------------
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
        job = self.service.job(job_id)
        if job is None:
            self._send_error(f"no such job {job_id!r}", status=404)
        return job

    # -- routes --------------------------------------------------------
    def do_GET(self):  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._send_json({"ok": True, "uptime_s": round(
                time.time() - self.service.started, 3)})
        elif path == "/metrics":
            self._send_json(self.service.metrics())
        elif path == "/jobs":
            self._send_json({"jobs": [job_status_payload(j)
                                      for j in self.service.jobs()]})
        elif path.startswith("/jobs/") and path.endswith("/watch"):
            self._watch(path.split("/")[2])
        elif path.startswith("/jobs/") and path.count("/") == 2:
            job = self._job_or_404(path.split("/")[2])
            if job is not None:
                self._send_json({"job": job_status_payload(job)})
        else:
            self._send_error(f"unknown path {path!r}", status=404)

    def do_POST(self):  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0].rstrip("/")
        try:
            if path == "/jobs":
                body = self._read_body()
                job = self.service.submit(spec_from_payload(body.get("spec")))
                self._send_json({"job": job_status_payload(job)},
                                status=202)
            elif path.startswith("/jobs/") and path.endswith("/cancel"):
                job = self._job_or_404(path.split("/")[2])
                if job is not None:
                    self.service.cancel(job.id)
                    self._send_json({"job": job_status_payload(job)})
            elif path == "/shutdown":
                body = self._read_body()
                drain = bool(body.get("drain", True))
                self._send_json({"shutting_down": True, "drain": drain})
                threading.Thread(target=self.service.shutdown,
                                 kwargs={"drain": drain},
                                 daemon=True).start()
            else:
                self._send_error(f"unknown path {path!r}", status=404)
        except ProtocolError as exc:
            self._send_error(str(exc), status=400)

    # -- watch streaming -----------------------------------------------
    def _send_chunk(self, data: bytes) -> None:  # one write = one send
        self.wfile.write(b"%X\r\n%s\r\n" % (len(data), data))

    def _watch(self, job_id: str) -> None:
        job = self._job_or_404(job_id)
        if job is None:
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        # The watcher hangs up on the terminal event: expect no more.
        self.send_header("Connection", "close")
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
                if fresh:  # everything since the last wake-up, one chunk
                    lines = [event_line(event) + "\n" for event in fresh]
                    self._send_chunk("".join(lines).encode("utf-8"))
                elif not finished:
                    self._send_chunk(b"\n")  # keep-alive
                if finished:
                    break
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            pass  # watcher went away; the job does not care
