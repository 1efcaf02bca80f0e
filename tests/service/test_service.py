"""End-to-end tests of the campaign service daemon.

Each test boots a real :class:`CampaignService` on an ephemeral port
(``port=0``) and talks to it through :class:`ServiceClient` over actual
HTTP, so the wire path (chunked watch streaming included) is exercised,
not mocked.  The three invariants the service is built around:

1. a daemon-run campaign's fingerprint is byte-identical to the offline
   ``python -m repro.campaign run`` of the same spec;
2. a warm resubmission executes zero trials — everything is served from
   the warm trial tier, and ``/metrics`` proves it;
3. a pool process killed mid-job is absorbed: the pool reopens itself
   and resubmits what was in flight (``campaign.executors`` — the daemon
   only reports it) and the fingerprint is unchanged;

and the lifecycle contract around them: a daemon creates its processes,
threads and socket in ``start()`` only, and ``shutdown()`` leaves none
of them behind.
"""

import contextlib
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.campaign.engine import run_campaign
from repro.campaign.executors import SerialExecutor
from repro.campaign.spec import CampaignSpec, SolverKnobs
from repro.campaign.store import CampaignStore
from repro.service import CampaignService, ServiceClient, ServiceError, server
from repro.service.protocol import ProtocolError, TERMINAL_STATES

# The worker-death suite's killing mixin, shared: a daemon reopens its
# pool with spawn, and a spawned child (which inherits this sys.path)
# must import the struck submission's ``die`` by name.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "campaign"))
from test_worker_death import Struck, running  # noqa: E402


def tiny_spec(**overrides):
    defaults = dict(
        matrices=["laplacian2d:10"], methods=("FEIR", "Lossy"),
        rates=(2.0, 20.0), repetitions=2, seed=99,
        knobs=SolverKnobs(tolerance=1e-8, max_iterations=2000,
                          num_workers=4, page_size=20),
        name="tiny")
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class StruckServicePool(Struck, server._ServicePool):
    """The daemon's pool, losing the child that receives its ``strike``-th
    submission (a resubmission included)."""


def struck(monkeypatch, strike):
    """Every daemon started from now on loses the child that receives its
    pool's ``strike``-th submission, or every one for ``strike=0``."""
    monkeypatch.setattr(StruckServicePool, "strike", strike)
    monkeypatch.setattr(server, "_ServicePool", StruckServicePool)


@contextlib.contextmanager
def running_daemon(workers=2, store=None):
    """A started daemon and a client that has seen it answer; shut down
    (no drain), then the client closed, on the way out."""
    svc = CampaignService(host="127.0.0.1", port=0, workers=workers,
                          store=store)
    svc.start()
    client = ServiceClient(svc.url())
    try:
        client.wait_until_up()
        yield svc, client
    finally:
        svc.shutdown(drain=False, timeout=30)
        client.close()


def wait(client, job_id, timeout=600.0, interval=0.1):
    """Poll ``client.status`` until the job reaches a terminal state."""
    deadline = time.monotonic() + timeout
    while True:
        status = client.status(job_id)
        if status["state"] in TERMINAL_STATES:
            return status
        if time.monotonic() >= deadline:
            raise ServiceError(f"job {job_id} still {status['state']!r} "
                               f"after {timeout:g}s")
        time.sleep(interval)


def request_threads():
    """The HTTP server's per-connection handler threads still alive."""
    return [t.name for t in threading.enumerate()
            if "process_request_thread" in t.name]


def assert_nothing_left_behind(svc, pool_pids, client):
    """The daemon's children, threads and sockets are gone: the
    listening one, and the kept-alive connections ``client`` holds,
    whose handler threads have ended."""
    assert pool_pids, "the daemon under test never had a pool"
    alive = {child.pid for child in multiprocessing.active_children()}
    assert not alive & set(pool_pids)
    assert svc._pool.pids() == []
    assert not [t.name for t in threading.enumerate()
                if t.name.startswith("service-")]
    with pytest.raises(OSError):
        socket.create_connection((svc.host, svc.port), timeout=5).close()
    deadline = time.monotonic() + 5
    while request_threads() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not request_threads()
    assert client._idle, "the client under test kept no connection"
    for conn in client._idle:
        conn.sock.settimeout(5)
        assert conn.sock.recv(1) == b""  # EOF: the daemon hung up


def offline_fingerprint(spec):
    """The ground truth: a serial, storeless, single-process run."""
    result = run_campaign(spec, executor=SerialExecutor())
    return result.fingerprint()


@pytest.fixture()
def service(tmp_path):
    with running_daemon(store=CampaignStore(tmp_path / "store")) as (svc, _):
        yield svc


@pytest.fixture()
def client(service):
    with contextlib.closing(ServiceClient(service.url())) as c:
        c.wait_until_up()
        yield c


class TestFingerprintInvariant:
    def test_daemon_matches_offline(self, client):
        spec = tiny_spec()
        reference = offline_fingerprint(spec)
        job = client.submit(spec)
        status = wait(client, job["id"], timeout=120)
        assert status["state"] == "done"
        assert status["executed"] == spec.num_trials
        assert status["cached"] == 0
        assert status["fingerprint"] == reference

    def test_offline_resumes_from_daemon_store(self, service, client,
                                               tmp_path):
        """The daemon persists through the same content-addressed store
        the offline engine reads — an offline re-run of a daemon-executed
        campaign is fully warm and fingerprint-identical."""
        spec = tiny_spec()
        job = client.submit(spec)
        status = wait(client, job["id"], timeout=120)
        assert status["state"] == "done"

        offline = run_campaign(spec, executor=SerialExecutor(),
                               store=CampaignStore(tmp_path / "store"))
        assert offline.executed == 0
        assert offline.cache_hits == spec.num_trials
        assert offline.fingerprint() == status["fingerprint"]


class TestWarmResubmission:
    def test_second_submission_executes_nothing(self, client):
        spec = tiny_spec()
        first = wait(client, client.submit(spec)["id"], timeout=120)
        second = wait(client, client.submit(spec)["id"], timeout=120)
        assert second["state"] == "done"
        assert second["executed"] == 0
        assert second["cached"] == spec.num_trials
        assert second["fingerprint"] == first["fingerprint"]

        metrics = client.metrics()
        assert set(metrics["cache"]["trials"]) == {"hits", "misses",
                                                   "hit_rate_percent"}
        assert metrics["cache"]["trials"]["hits"] >= spec.num_trials
        assert metrics["trials"]["executed"] == spec.num_trials
        assert metrics["trials"]["cached"] >= spec.num_trials

    def test_fresh_daemon_is_warm_from_the_store(self, service, client,
                                                 tmp_path):
        """A restarted daemon (cold RAM, same store root) still executes
        zero trials — persistence, not process memory, carries the heat."""
        spec = tiny_spec()
        first = wait(client, client.submit(spec)["id"], timeout=120)
        assert first["state"] == "done"
        service.shutdown(drain=True, timeout=30)

        with running_daemon(store=CampaignStore(tmp_path / "store")) \
                as (_, c2):
            resumed = wait(c2, c2.submit(spec)["id"], timeout=120)
            assert resumed["state"] == "done"
            assert resumed["executed"] == 0
            assert resumed["cached"] == spec.num_trials
            assert resumed["fingerprint"] == first["fingerprint"]


class TestWorkerDeath:
    def test_a_struck_worker_is_absorbed(self, monkeypatch):
        """A pool process dying mid-shard must not fail the job or change
        one bit of the result: the pool reopens itself once and the
        trials in flight are resubmitted, visibly."""
        spec = tiny_spec()
        reference = offline_fingerprint(spec)
        struck(monkeypatch, 2)
        with running_daemon() as (svc, client):
            original_pids = svc._pool.pids()
            status = wait(client, client.submit(spec)["id"], timeout=120)
            assert status["state"] == "done"
            assert status["fingerprint"] == reference
            assert status["shard_retries"] >= 1
            retries = [e for e in client.watch(status["id"], read_timeout=30)
                       if e["event"] == "shard-retry"]
            assert len(retries) == status["shard_retries"]
            assert {e["attempt"] for e in retries} == {1}
            assert all(e["reason"].startswith("trial ") and e["reason"].endswith(
                " resubmitted after the pool lost a worker") for e in retries)
            metrics = client.metrics()
            assert metrics["worker_deaths"] == 1  # one break, counted once
            assert metrics["shard_retries"] == status["shard_retries"]
            # the daemon is whole again: a full, new set of children...
            rebuilt_pids = svc._pool.pids()
            assert len(rebuilt_pids) == metrics["workers"]
            assert not set(rebuilt_pids) & set(original_pids)
            # ...that runs a second job to the right answer
            other = tiny_spec(seed=123, name="tiny-b")
            second = wait(client, client.submit(other)["id"], timeout=120)
            assert second["state"] == "done"
            assert second["executed"] == other.num_trials
            assert second["fingerprint"] == offline_fingerprint(other)
            svc.shutdown(drain=False, timeout=30)
            assert_nothing_left_behind(svc, original_pids + rebuilt_pids,
                                       client)

    def test_a_struck_worker_with_a_store_recovers_persisted_trials(
            self, monkeypatch, tmp_path):
        """What a lost child had persisted comes back from the store;
        nothing is executed twice into the result."""
        spec = tiny_spec()
        reference = offline_fingerprint(spec)
        struck(monkeypatch, 3)
        with running_daemon(store=CampaignStore(tmp_path / "store")) \
                as (_, client):
            status = wait(client, client.submit(spec)["id"], timeout=120)
            assert status["state"] == "done"
            assert status["fingerprint"] == reference
            assert status["completed"] == spec.num_trials
            assert client.metrics()["worker_deaths"] == 1
        # Exactly the campaign's artifacts (the pool terminates the dead
        # child's siblings too, so a torn ``*.tmp`` beside them is fair).
        stored = {path.stem for path in
                  (tmp_path / "store" / "trials").glob("*/*.json")}
        assert stored == {trial.store_key() for trial in spec.expand()}
        assert CampaignStore(tmp_path / "store").verify().ok

    def test_a_shard_gives_up_after_max_retries(self, monkeypatch):
        """Every submission kills its child: the pool's resubmissions
        are capped (``campaign.executors``) and the job fails loudly,
        naming the trial, instead of looping.

        A shard's trials are all in the pool at once, so a break loses
        the whole shard — the trial the child died under and everything
        queued behind it — and each of the ``MAX_RESUBMITS`` rounds
        resubmits all of it: retries count trials, not rounds (with one
        trial in flight per shard the two were the same number)."""
        from repro.campaign.executors import MAX_RESUBMITS
        struck(monkeypatch, 0)
        spec = tiny_spec()
        with running_daemon(workers=1) as (svc, client):
            status = wait(client, client.submit(spec)["id"], timeout=120)
            assert status["state"] == "failed"
            assert status["error"].startswith("WorkerLost: trial 0 ")
            assert "lost its worker" in status["error"]
            in_flight = spec.num_trials  # one worker: one shard holds them all
            assert status["shard_retries"] == MAX_RESUBMITS * in_flight == 24
            metrics = client.metrics()
            assert metrics["shard_retries"] == MAX_RESUBMITS * in_flight
            assert metrics["worker_deaths"] == MAX_RESUBMITS + 1
            # the pool that gave up is whole again for the next job
            assert len(svc._pool.pids()) == 1


class TestWatchStream:
    def test_watch_streams_every_trial_event(self, client):
        spec = tiny_spec()
        job = client.submit(spec)
        events = list(client.watch(job["id"], read_timeout=120))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "queued"
        assert "start" in kinds
        assert kinds[-1] == "done"
        trials = [e for e in events if e["event"] == "trial"]
        assert len(trials) == spec.num_trials
        assert sorted(e["index"] for e in trials) == \
            list(range(spec.num_trials))
        done = events[-1]
        assert done["fingerprint"] == client.status(job["id"])["fingerprint"]

    def test_late_watcher_replays_history(self, client):
        """Attaching after completion still yields the full event log."""
        spec = tiny_spec()
        job = client.submit(spec)
        wait(client, job["id"], timeout=120)
        events = list(client.watch(job["id"], read_timeout=30))
        assert events[-1]["event"] == "done"
        assert len([e for e in events if e["event"] == "trial"]) == \
            spec.num_trials

    def test_cached_trial_events_carry_the_new_grids_indices(self, client):
        """A job served in part by what another grid persisted numbers
        its cached ``trial`` events, like its fingerprint, as its own
        cold run would."""
        wait(client, client.submit(tiny_spec())["id"], timeout=120)
        grown = tiny_spec(rates=(20.0,), repetitions=4)
        job = client.submit(grown)
        events = list(client.watch(job["id"], read_timeout=120))
        trials = [e for e in events if e["event"] == "trial"]
        assert len([e for e in trials if e["cached"]]) == 4
        assert sorted(e["index"] for e in trials) == \
            list(range(grown.num_trials))
        by_index = {t.index: t for t in grown.expand()}
        assert all((e["method"], e["repetition"]) ==
                   (by_index[e["index"]].method,
                    by_index[e["index"]].repetition) for e in trials)
        assert events[-1]["fingerprint"] == offline_fingerprint(grown)

    def test_watch_unknown_job(self, client):
        with pytest.raises(ServiceError):
            list(client.watch("j999-deadbeef", read_timeout=10))


class TestCancelAndShutdown:
    def test_cancel_stops_dispatch(self, client):
        spec = tiny_spec(repetitions=25)  # 100 trials: long enough to hit
        job = client.submit(spec)
        client.cancel(job["id"])
        final = wait(client, job["id"], timeout=120)
        assert final["state"] == "cancelled"
        assert final["completed"] < spec.num_trials
        assert final["fingerprint"] is None

    def test_drain_shutdown_finishes_queued_work(self, tmp_path):
        spec = tiny_spec()
        with running_daemon(store=CampaignStore(tmp_path / "store")) \
                as (svc, client):
            job = client.submit(spec)
            svc.shutdown(drain=True, timeout=120)
            assert svc.job(job["id"]).state == "done"
            assert svc.job(job["id"]).fingerprint is not None
            with pytest.raises(ProtocolError, match="not accepting"):
                svc.submit(spec)

    def test_jobs_listing_and_bad_ids(self, client):
        spec = tiny_spec()
        job = client.submit(spec)
        wait(client, job["id"], timeout=120)
        listed = client.jobs()
        assert [j["id"] for j in listed] == [job["id"]]
        with pytest.raises(ServiceError):
            client.status("no-such-job")
        # the client refuses malformed ids before any request goes out...
        with pytest.raises(ProtocolError):
            client.status("..%2f..%2fetc")
        # ...and the server rejects them independently (raw HTTP)
        import http.client
        conn = http.client.HTTPConnection(client.host, client.port,
                                          timeout=10)
        try:
            conn.request("GET", "/jobs/..%2f..%2fetc")
            assert conn.getresponse().status == 400
        finally:
            conn.close()


class TestRemovedBackendAlias:
    def test_backend_knob_is_a_400_not_a_500(self, client):
        import http.client
        import json
        from repro.service.protocol import spec_to_payload
        payload = spec_to_payload(tiny_spec())
        payload["knobs"]["backend"] = "threaded"
        conn = http.client.HTTPConnection(client.host, client.port,
                                          timeout=10)
        try:
            conn.request("POST", "/jobs", body=json.dumps({"spec": payload}),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            body = response.read().decode()
        finally:
            conn.close()
        assert response.status == 400
        assert "backend" in body
        assert client.jobs() == []


class TestPreflight:
    def test_a_spec_no_trial_could_run_is_a_400_at_submit(self, client):
        """Refused before a job exists: not queued, then failed."""
        import http.client
        import json
        from repro.service.protocol import spec_to_payload

        def spoil(edit):
            payload = spec_to_payload(tiny_spec())
            edit(payload)
            return payload

        bad = {
            "unknown recovery strategy": spoil(
                lambda p: p.update(methods=["NOPE"])),
            "needs the parameter 'nx'": spoil(
                lambda p: p["matrices"][0].update(params=[["zz", 3]])),
            "error rates": spoil(lambda p: p.update(rates=[-1.0])),
            "unknown suite matrix": spoil(lambda p: p["matrices"][0].update(
                family="suite", name="nosuch", params=[])),
        }
        for message, payload in bad.items():
            conn = http.client.HTTPConnection(client.host, client.port,
                                              timeout=10)
            try:
                conn.request("POST", "/jobs",
                             body=json.dumps({"spec": payload}),
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                body = response.read().decode()
            finally:
                conn.close()
            assert response.status == 400, body
            assert message in body
        assert client.jobs() == []

    @pytest.mark.parametrize("length", ["-1", "abc"])
    def test_a_malformed_content_length_is_a_400(self, client, length):
        """Raw bytes, since no HTTP client sends such a header: the
        request is answered at once, not left waiting for EOF (-1) and
        not dropped unanswered (abc)."""
        request = (f"POST /jobs HTTP/1.1\r\nHost: {client.host}\r\n"
                   f"Content-Type: application/json\r\n"
                   f"Content-Length: {length}\r\n\r\n"
                   '{"spec": {}}').encode()
        reply = b""
        with socket.create_connection((client.host, client.port),
                                      timeout=3) as sock:
            sock.sendall(request)
            while chunk := sock.recv(4096):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 "), reply
        assert b"bad Content-Length" in reply
        assert client.jobs() == []


class TestMetricsAndHealth:
    def test_health_reports_protocol_version(self, client):
        from repro.service.protocol import PROTOCOL_VERSION
        health = client.health()
        assert health["version"] == PROTOCOL_VERSION

    def test_metrics_shape(self, client):
        spec = tiny_spec()
        wait(client, client.submit(spec)["id"], timeout=120)
        m = client.metrics()
        assert m["workers"] == 2
        assert m["jobs"]["done"] == 1
        assert m["queue_depth"] == 0
        assert m["trials"]["completed"] == spec.num_trials
        assert set(m["cache"]) == {"trials"}  # the daemon's only RAM tier
        assert m["store"] is not None
        for detail in m["jobs_detail"].values():
            assert detail["state"] in TERMINAL_STATES


class TestConcurrentSubmissions:
    def test_interleaved_jobs_keep_their_fingerprints(self, client):
        """Two different specs in flight at once must not cross-talk —
        content-keyed seeds make every trial self-contained."""
        spec_a = tiny_spec()
        spec_b = tiny_spec(seed=123, name="tiny-b")
        ref_a = offline_fingerprint(spec_a)
        ref_b = offline_fingerprint(spec_b)
        job_a = client.submit(spec_a)
        job_b = client.submit(spec_b)
        done_a = wait(client, job_a["id"], timeout=120)
        done_b = wait(client, job_b["id"], timeout=120)
        assert done_a["fingerprint"] == ref_a
        assert done_b["fingerprint"] == ref_b
        assert done_a["fingerprint"] != done_b["fingerprint"]


class TestLifecycle:
    """Processes, threads and the socket exist between ``start()`` and
    ``shutdown()`` and at no other time."""

    def test_construction_creates_no_process_and_no_thread(self, tmp_path):
        children = multiprocessing.active_children()
        threads = threading.enumerate()
        import repro.service.server  # noqa: F401 - the import is the test
        svc = CampaignService(host="127.0.0.1", port=0, workers=2,
                              store=CampaignStore(tmp_path / "store"))
        assert svc._pool.pids() == []
        assert multiprocessing.active_children() == children
        assert threading.enumerate() == threads
        svc.shutdown(timeout=5)  # never started: nothing to stop, no error

    @pytest.mark.parametrize("drain", [True, False])
    def test_shutdown_leaves_nothing_behind(self, tmp_path, drain):
        with running_daemon(store=CampaignStore(tmp_path / "store")) \
                as (svc, client):
            pids = svc._pool.pids()
            assert len(pids) == 2
            job = client.submit(tiny_spec())
            svc.shutdown(drain=drain, timeout=120)
            assert svc.job(job["id"]).state in (("done",) if drain
                                                else ("done", "cancelled"))
            assert_nothing_left_behind(svc, pids, client)
            svc.shutdown(drain=drain, timeout=5)  # idempotent

    def test_no_drain_awaits_the_trial_in_flight(self, tmp_path):
        """Cancelling stops dispatch, it does not abandon a future: what
        the children were running is recorded and persisted."""
        spec = tiny_spec(repetitions=25)
        store = CampaignStore(tmp_path / "store")
        with running_daemon(store=store) as (svc, client):
            job = client.submit(spec)
            for event in client.watch(job["id"], read_timeout=120):
                if event["event"] == "trial":
                    break
        record = svc.job(job["id"])
        assert record.state == "cancelled"
        assert 0 < record.completed < spec.num_trials
        assert store.entry_count()["trials"] == record.completed

    def test_children_are_forked_from_a_quiet_process(self, monkeypatch):
        """No fork while a ``service-*`` thread runs — neither at start
        nor when the pool is rebuilt after a death (the only fork a
        multi-threaded daemon could issue, and the one py3.12 warns
        about)."""
        forks = []
        real_fork = os.fork

        def spying_fork():
            forks.append([t.name for t in threading.enumerate()
                          if t.name.startswith("service-")])
            return real_fork()

        monkeypatch.setattr(os, "fork", spying_fork)
        struck(monkeypatch, 2)
        with running_daemon() as (_, client):
            status = wait(client, client.submit(tiny_spec())["id"],
                                 timeout=120)
            assert status["state"] == "done"
            assert client.metrics()["worker_deaths"] == 1
        if multiprocessing.get_start_method() == "fork":
            assert len(forks) == 2  # the start() pool, nothing since
        assert forks == [[]] * len(forks)

    def test_a_running_job_is_driven_by_the_scheduler_alone(self):
        """One driver over one pool: no thread per shard or per worker.
        The names are read as trial events arrive, whether or not the
        job has finished by the time the test looks."""
        seen = set()
        with running_daemon() as (_, client):
            job = client.submit(tiny_spec(repetitions=25))
            for event in client.watch(job["id"], read_timeout=120):
                if event["event"] == "trial":
                    seen.add(tuple(sorted(
                        t.name for t in threading.enumerate()
                        if t.name.startswith("service-"))))
        assert seen == {("service-http", "service-scheduler")}

    def test_a_warm_job_does_not_wait_for_a_running_one(self):
        """What the cache holds is served at submission: a resubmitted
        job is done while a cold one still has the pool."""
        warm_spec = tiny_spec()
        with running_daemon() as (_, client):
            wait(client, client.submit(warm_spec)["id"], timeout=120)
            cold = client.submit(tiny_spec(seed=7, repetitions=500))
            warm = wait(client, client.submit(warm_spec)["id"], timeout=30)
            assert (warm["state"], warm["executed"]) == ("done", 0)
            assert client.status(cold["id"])["state"] == "running"

    def test_a_shut_down_daemon_is_freed_by_refcount(self):
        """Nothing it leaves behind points back at it, so it does not
        wait for the cycle collector (and keep its jobs until then)."""
        import gc
        import time
        import weakref
        gc.collect()
        gc.disable()
        try:
            with running_daemon() as (svc, client):
                status = wait(client, client.submit(tiny_spec())["id"],
                                     timeout=120)
                assert status["state"] == "done"
            freed = weakref.ref(svc)
            del svc, client
            # A request thread may still be closing its connection.
            deadline = time.monotonic() + 10
            while freed() is not None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert freed() is None
        finally:
            gc.enable()

    def test_a_port_in_use_does_not_leak_the_pool(self, service):
        clash = CampaignService(host="127.0.0.1", port=service.port,
                                workers=2, store=None)
        with pytest.raises(OSError):
            clash.start()
        assert clash._pool.pids() == []


class TestKeptAliveConnection:
    """A client sends every request over one kept-alive connection, and
    the daemon answers it without waiting out Nagle's algorithm."""

    @staticmethod
    def count_accepted(monkeypatch):
        """The connections the daemon's HTTP server accepts from now on."""
        from repro.service.server import ThreadingHTTPServer
        accepted = []
        process_request = ThreadingHTTPServer.process_request

        def counting(httpd, request, client_address):
            accepted.append(client_address)
            return process_request(httpd, request, client_address)

        monkeypatch.setattr(ThreadingHTTPServer, "process_request", counting)
        return accepted

    def test_every_request_shares_one_connection(self, monkeypatch):
        accepted = self.count_accepted(monkeypatch)
        spec = tiny_spec()
        with running_daemon() as (_, client):
            client.health()
            jobs = []
            for _ in range(4):  # a cold job, then three warm ones
                job = client.submit(spec)
                events = list(client.watch(job["id"], read_timeout=120))
                assert events[-1]["event"] == "done"
                jobs.append(job["id"])
            assert client.status(jobs[-1])["executed"] == 0
            assert client.metrics()["jobs"]["done"] == 4
        assert len(accepted) == 1

    def test_a_connection_the_daemon_closed_is_retried(self, monkeypatch):
        accepted = self.count_accepted(monkeypatch)
        with running_daemon() as (svc, client):
            client.health()
            with svc._connections_lock:
                held = list(svc._connections)
            assert len(held) == 1
            held[0].shutdown(socket.SHUT_RDWR)  # as a restart would
            deadline = time.monotonic() + 5
            while svc._connections and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not svc._connections
            assert client.health()["ok"]
        assert len(accepted) == 2

    def test_a_half_read_watch_is_not_reused(self):
        """A watch left after its first trial has the rest of the job's
        stream on its connection: the next request must not read it."""
        with running_daemon() as (_, client):
            job = client.submit(tiny_spec(repetitions=25))
            for event in client.watch(job["id"], read_timeout=120):
                if event["event"] == "trial":
                    break
            assert client.status(job["id"])["id"] == job["id"]

    def test_threads_never_share_a_connection(self, monkeypatch):
        """Eight threads on two CPUs hammer one client, switching often:
        a connection two threads shared would garble an answer or raise
        ``ResponseNotReady``; every connection ends up idle again."""
        accepted = self.count_accepted(monkeypatch)
        answers, errors = [], []

        def hammer(client):
            try:
                for _ in range(25):
                    answers.append(client.health()["ok"])
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with running_daemon(workers=1) as (_, client):
                threads = [threading.Thread(target=hammer, args=(client,))
                           for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert not errors, errors
                assert answers == [True] * 200
                assert 1 <= len(accepted) <= 8
                assert len(client._idle) == len(accepted)
        finally:
            sys.setswitchinterval(interval)

    def test_no_nagle_stall(self):
        """Each answer leaves in two writes; with Nagle on, the second
        waits out the client's delayed ACK, ≈ 44 ms a request."""
        with running_daemon() as (_, client):
            started = time.monotonic()
            for _ in range(50):
                client.health()
            assert time.monotonic() - started < 1.0


class TestOneFingerprint:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("stored", [False, True])
    def test_workers_and_store_do_not_move_it(self, tmp_path, workers,
                                              stored):
        spec = tiny_spec()
        reference = offline_fingerprint(spec)
        store = CampaignStore(tmp_path / "store") if stored else None
        with running_daemon(workers=workers, store=store) as (_, client):
            status = wait(client, client.submit(spec)["id"], timeout=120)
        assert status["state"] == "done"
        assert status["executed"] == spec.num_trials
        assert status["fingerprint"] == reference


class CountingStore(CampaignStore):
    """The daemon-side handle, counting what the *parent* writes."""

    def __init__(self, root):
        super().__init__(root)
        self.put_trial_calls = 0
        self.get_trial_calls = 0
        self.trial_events = 0

    def get_trial(self, key):
        self.get_trial_calls += 1
        return super().get_trial(key)

    def put_trial(self, key, result):
        self.put_trial_calls += 1
        super().put_trial(key, result)

    def journal_append(self, campaign_key, event):
        self.trial_events += event.get("event") == "trial"
        super().journal_append(campaign_key, event)


class TestOneLoopTwoDrivers:
    """A daemon job and an offline ``run_campaign`` are the same
    ``CampaignRun``: on fresh stores they write the same journal."""

    @staticmethod
    def journal(store, spec):
        """The events with the daemon's stamps dropped and the trial
        lines (completion order is the pool's) sorted by index."""
        events = [{k: v for k, v in event.items()
                   if k not in ("source", "job")}
                  for event in store.journal_events(spec.store_key())]
        trials = sorted((e for e in events if e["event"] == "trial"),
                        key=lambda e: e["index"])
        return [e for e in events if e["event"] != "trial"], trials

    @pytest.mark.parametrize("runs", [1, 2], ids=["cold", "cold+warm"])
    def test_same_spec_same_journal(self, tmp_path, runs):
        spec = tiny_spec()
        offline = CampaignStore(tmp_path / "offline")
        for _ in range(runs):
            run_campaign(spec, executor=SerialExecutor(), store=offline)
        served = CampaignStore(tmp_path / "served")
        with running_daemon(store=served) as (_, client):
            for _ in range(runs):
                status = wait(client, client.submit(spec)["id"], timeout=120)
                assert status["state"] == "done"
        events = list(served.journal_events(spec.store_key()))
        assert all(e["source"] == "service" and e["job"] for e in events)
        marks, trials = self.journal(served, spec)
        assert (marks, trials) == self.journal(offline, spec)
        assert [e["event"] for e in marks] == ["start", "done"] * runs
        assert len(trials) == spec.num_trials
        assert marks[-1]["fingerprint"] == status["fingerprint"]
        assert (marks[-1]["executed"], marks[-1]["cached"]) == \
            ((0, spec.num_trials) if runs == 2 else (spec.num_trials, 0))

    def test_a_cancelled_job_says_how_far_it_got(self, tmp_path):
        spec = tiny_spec(repetitions=25)
        store = CampaignStore(tmp_path / "store")
        with running_daemon(store=store) as (svc, client):
            job = client.submit(spec)
            for event in client.watch(job["id"], read_timeout=120):
                if event["event"] == "trial":
                    client.cancel(job["id"])
                    break
            final = wait(client, job["id"], timeout=120)
        assert final["state"] == "cancelled"
        last = list(store.journal_events(spec.store_key()))[-1]
        assert last["event"] == "cancelled"
        assert last["completed"] == final["completed"] == \
            store.entry_count()["trials"]


class TestDispatch:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_shard_is_in_the_pool_before_its_first_result_is_recorded(
            self, monkeypatch, workers):
        """A job goes to the pool as one shard, whole — a child finds
        its next trial in the pool's call queue instead of waiting for
        the scheduler's round trip — so when the job records its first
        ``trial`` event every pending trial has passed
        ``_ServicePool.submit``, exactly once."""
        submitted, first = [], []
        submit, emit = server._ServicePool.submit, server.Job.emit

        def spying_submit(pool, fn, item):
            submitted.append(item.trial.index)
            return submit(pool, fn, item)

        def spying_emit(job, event):
            if event["event"] == "trial" and not first:
                first.append(sorted(submitted))
            emit(job, event)

        monkeypatch.setattr(server._ServicePool, "submit", spying_submit)
        monkeypatch.setattr(server.Job, "emit", spying_emit)
        spec = tiny_spec()
        with running_daemon(workers=workers) as (_, client):
            status = wait(client, client.submit(spec)["id"], timeout=120)
            warm = wait(client, client.submit(spec)["id"], timeout=120)
        assert status["state"] == warm["state"] == "done"
        assert (status["shards"], warm["shards"]) == (1, 0)
        every = list(range(spec.num_trials))
        assert first == [every]
        assert sorted(submitted) == every


class TestParentSideWork:
    def test_the_parent_never_rewrites_what_the_child_persisted(self,
                                                                tmp_path):
        spec = tiny_spec()
        store = CountingStore(tmp_path / "store")
        with running_daemon(store=store) as (svc, client):
            cold = wait(client, client.submit(spec)["id"], timeout=120)
            assert cold["executed"] == spec.num_trials
            assert store.put_trial_calls == 0
            assert store.trial_events == spec.num_trials
            # The resubmission is served from the daemon's RAM tier: it
            # reads the store no more than it writes it.
            reads = store.get_trial_calls
            warm = wait(client, client.submit(spec)["id"], timeout=120)
            assert warm["executed"] == 0
            assert store.get_trial_calls == reads
            assert store.put_trial_calls == 0
            assert store.trial_events == spec.num_trials
        assert store.entry_count()["trials"] == spec.num_trials
        assert store.verify().ok
        assert not (store.root / "matrices").exists()

    def test_ram_only_daemon_keeps_every_trial(self):
        spec = tiny_spec()
        with running_daemon() as (svc, client):
            cold = wait(client, client.submit(spec)["id"], timeout=120)
            assert cold["executed"] == spec.num_trials
            assert svc.cache.store is None
            warm = wait(client, client.submit(spec)["id"], timeout=120)
            assert warm["executed"] == 0
            assert warm["cached"] == spec.num_trials
            assert warm["fingerprint"] == cold["fingerprint"]


@contextlib.contextmanager
def serving(*args):
    """``python -m repro.service serve --port 0 --workers 2 *args`` as a
    child process, once it listens: the process, its URL and its pool's
    pids.  Killed on the way out if still running."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    with subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve", "--port", "0",
             "--workers", "2", *args],
            stdout=subprocess.PIPE, text=True, env=env) as daemon:
        try:
            listening = daemon.stdout.readline()
            assert "listening on" in listening
            children = subprocess.run(
                ["pgrep", "-P", str(daemon.pid)], capture_output=True,
                text=True).stdout.split()
            yield daemon, listening.split()[4], [int(p) for p in children]
        finally:
            daemon.kill()
            daemon.wait(timeout=60)


class TestServeCommand:
    def test_sigterm_is_a_shutdown_that_reaps_the_pool(self):
        """``kill <daemon>`` must not orphan the worker processes."""
        with serving("--no-store") as (daemon, _, children):
            assert len(children) == 2
            daemon.send_signal(signal.SIGTERM)
            assert daemon.wait(timeout=60) == 0
            assert "campaign service stopped" in daemon.stdout.read()
            for pid in children:
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_a_sigkilled_daemon_leaves_a_store_an_offline_run_resumes(
            self, tmp_path):
        """``kill -9`` of the daemon mid-job loses only what its children
        held: every trial they persisted stays, and an offline run over
        the store executes the rest, to the serial fingerprint."""
        spec = tiny_spec(repetitions=25)
        root = tmp_path / "store"
        with serving("--store", str(root)) as (daemon, url, children):
            with contextlib.closing(ServiceClient(url)) as client:
                job = client.submit(spec)
                seen = 0
                for event in client.watch(job["id"], read_timeout=120):
                    seen += event["event"] == "trial"
                    if seen == 2:
                        daemon.send_signal(signal.SIGKILL)
                        break
            assert daemon.wait(timeout=60) == -signal.SIGKILL
        # The orphaned children exit on their own; none may still write.
        deadline = time.monotonic() + 5.0
        while (any(running(pid) for pid in children)
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert not [pid for pid in children if running(pid)]
        resumed = run_campaign(spec, executor=SerialExecutor(),
                               store=CampaignStore(root))
        assert 0 < resumed.executed < spec.num_trials
        assert resumed.fingerprint() == offline_fingerprint(spec)
        assert CampaignStore(root).verify().ok
