"""End-to-end tests of the campaign service daemon.

Each test boots a real :class:`CampaignService` on an ephemeral port
(``port=0``) and talks to it through :class:`ServiceClient` over actual
HTTP, so the wire path (chunked watch streaming included) is exercised,
not mocked.  The three invariants the service is built around:

1. a daemon-run campaign's fingerprint is byte-identical to the offline
   ``python -m repro.campaign run`` of the same spec;
2. a warm resubmission executes zero trials — everything is served from
   the warm cache, and ``/metrics`` proves it;
3. a worker death mid-job is absorbed: the shard is retried with the
   already-recorded trials skipped and the fingerprint is unchanged.
"""

import pytest

from repro.campaign.engine import clear_caches, run_campaign
from repro.campaign.executors import SerialExecutor
from repro.campaign.spec import CampaignSpec, SolverKnobs
from repro.campaign.store import CampaignStore, clear_store_cache
from repro.service import (CampaignService, ChaosMonkey, ServiceClient,
                           ServiceError, WorkerDied)
from repro.service.protocol import ProtocolError, TERMINAL_STATES


def tiny_spec(**overrides):
    defaults = dict(
        matrices=["laplacian2d:10"], methods=("FEIR", "Lossy"),
        rates=(2.0, 20.0), repetitions=2, seed=99,
        knobs=SolverKnobs(tolerance=1e-8, max_iterations=2000,
                          num_workers=4, page_size=20),
        name="tiny")
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def offline_fingerprint(spec):
    """The ground truth: a serial, storeless, single-process run."""
    clear_caches()
    result = run_campaign(spec, executor=SerialExecutor())
    clear_caches()
    return result.fingerprint()


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    clear_store_cache()
    yield
    clear_caches()
    clear_store_cache()


@pytest.fixture()
def service(tmp_path):
    svc = CampaignService(host="127.0.0.1", port=0, workers=2,
                          store=CampaignStore(tmp_path / "store"))
    svc.start()
    yield svc
    svc.shutdown(drain=False, timeout=30)


@pytest.fixture()
def client(service):
    c = ServiceClient(service.url())
    c.wait_until_up()
    return c


class TestFingerprintInvariant:
    def test_daemon_matches_offline(self, client):
        spec = tiny_spec()
        reference = offline_fingerprint(spec)
        job = client.submit(spec)
        status = client.wait(job["id"], timeout=120)
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
        status = client.wait(job["id"], timeout=120)
        assert status["state"] == "done"

        clear_caches()
        clear_store_cache()
        offline = run_campaign(spec, executor=SerialExecutor(),
                               store=CampaignStore(tmp_path / "store"))
        assert offline.executed == 0
        assert offline.cache_hits == spec.num_trials
        assert offline.fingerprint() == status["fingerprint"]


class TestWarmResubmission:
    def test_second_submission_executes_nothing(self, client):
        spec = tiny_spec()
        first = client.wait(client.submit(spec)["id"], timeout=120)
        second = client.wait(client.submit(spec)["id"], timeout=120)
        assert second["state"] == "done"
        assert second["executed"] == 0
        assert second["cached"] == spec.num_trials
        assert second["fingerprint"] == first["fingerprint"]

        metrics = client.metrics()
        assert metrics["cache"]["trials"]["hits"] >= spec.num_trials
        assert metrics["trials"]["executed"] == spec.num_trials
        assert metrics["trials"]["cached"] >= spec.num_trials

    def test_fresh_daemon_is_warm_from_the_store(self, service, client,
                                                 tmp_path):
        """A restarted daemon (cold RAM, same store root) still executes
        zero trials — persistence, not process memory, carries the heat."""
        spec = tiny_spec()
        first = client.wait(client.submit(spec)["id"], timeout=120)
        assert first["state"] == "done"

        clear_caches()
        clear_store_cache()
        svc2 = CampaignService(host="127.0.0.1", port=0, workers=2,
                               store=CampaignStore(tmp_path / "store"))
        svc2.start()
        try:
            c2 = ServiceClient(svc2.url())
            c2.wait_until_up()
            resumed = c2.wait(c2.submit(spec)["id"], timeout=120)
            assert resumed["state"] == "done"
            assert resumed["executed"] == 0
            assert resumed["cached"] == spec.num_trials
            assert resumed["fingerprint"] == first["fingerprint"]
        finally:
            svc2.shutdown(drain=False, timeout=30)


class TestWorkerDeath:
    def test_chaos_kill_is_absorbed(self):
        """A worker dying mid-shard must not fail the job or change one
        bit of the result: the shard is requeued and already-recorded
        trials are skipped."""
        spec = tiny_spec()
        reference = offline_fingerprint(spec)
        svc = CampaignService(host="127.0.0.1", port=0, workers=2,
                              store=None, chaos=ChaosMonkey(2))
        svc.start()
        try:
            client = ServiceClient(svc.url())
            client.wait_until_up()
            status = client.wait(client.submit(spec)["id"], timeout=120)
            assert status["state"] == "done"
            assert status["fingerprint"] == reference
            assert status["shard_retries"] >= 1
            metrics = client.metrics()
            assert metrics["worker_deaths"] >= 1
        finally:
            svc.shutdown(drain=False, timeout=30)

    def test_chaos_monkey_fires_exactly_once(self):
        chaos = ChaosMonkey(3)
        chaos(0, 1)
        chaos(0, 2)
        with pytest.raises(WorkerDied):
            chaos(0, 3)
        chaos(0, 4)  # second worker survives the same count

    def test_chaos_monkey_env_parsing(self, monkeypatch):
        from repro.service.server import SERVICE_CHAOS_ENV
        monkeypatch.delenv(SERVICE_CHAOS_ENV, raising=False)
        assert ChaosMonkey.from_env() is None
        monkeypatch.setenv(SERVICE_CHAOS_ENV, "kill-worker:5")
        assert ChaosMonkey.from_env().kill_after == 5
        monkeypatch.setenv(SERVICE_CHAOS_ENV, "set-fire-to:everything")
        with pytest.raises(ValueError):
            ChaosMonkey.from_env()


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
        client.wait(job["id"], timeout=120)
        events = list(client.watch(job["id"], read_timeout=30))
        assert events[-1]["event"] == "done"
        assert len([e for e in events if e["event"] == "trial"]) == \
            spec.num_trials

    def test_watch_unknown_job(self, client):
        with pytest.raises(ServiceError):
            list(client.watch("j999-deadbeef", read_timeout=10))


class TestCancelAndShutdown:
    def test_cancel_stops_dispatch(self, client):
        spec = tiny_spec(repetitions=25)  # 100 trials: long enough to hit
        job = client.submit(spec)
        client.cancel(job["id"])
        final = client.wait(job["id"], timeout=120)
        assert final["state"] == "cancelled"
        assert final["completed"] < spec.num_trials
        assert final["fingerprint"] is None

    def test_drain_shutdown_finishes_queued_work(self, tmp_path):
        spec = tiny_spec()
        svc = CampaignService(host="127.0.0.1", port=0, workers=2,
                              store=CampaignStore(tmp_path / "store"))
        svc.start()
        client = ServiceClient(svc.url())
        client.wait_until_up()
        job = client.submit(spec)
        svc.shutdown(drain=True, timeout=120)
        assert svc.job(job["id"]).state == "done"
        assert svc.job(job["id"]).fingerprint is not None
        with pytest.raises(ProtocolError, match="not accepting"):
            svc.submit(spec)

    def test_jobs_listing_and_bad_ids(self, client):
        spec = tiny_spec()
        job = client.submit(spec)
        client.wait(job["id"], timeout=120)
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


class TestMetricsAndHealth:
    def test_health_reports_protocol_version(self, client):
        from repro.service.protocol import PROTOCOL_VERSION
        health = client.health()
        assert health["version"] == PROTOCOL_VERSION

    def test_metrics_shape(self, client):
        spec = tiny_spec()
        client.wait(client.submit(spec)["id"], timeout=120)
        m = client.metrics()
        assert m["workers"] == 2
        assert m["jobs"]["done"] == 1
        assert m["queue_depth"] == 0
        assert m["trials"]["completed"] == spec.num_trials
        assert set(m["cache"]) >= {"matrices", "baselines", "trials"}
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
        done_a = client.wait(job_a["id"], timeout=120)
        done_b = client.wait(job_b["id"], timeout=120)
        assert done_a["fingerprint"] == ref_a
        assert done_b["fingerprint"] == ref_b
        assert done_a["fingerprint"] != done_b["fingerprint"]
