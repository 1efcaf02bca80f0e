"""Client library for the campaign service daemon.

Stdlib-only (``http.client``): submit campaigns, poll status, stream
``watch`` events, cancel jobs and shut the daemon down.  The daemon URL
defaults to ``REPRO_SERVICE_URL`` and falls back to the daemon's own
host/port defaults, so a client on the daemon's machine needs no
configuration at all.

    from repro.service import ServiceClient
    client = ServiceClient()
    job = client.submit(spec)
    for event in client.watch(job["id"]):
        ...
    assert client.status(job["id"])["fingerprint"] == offline_fingerprint
"""

from __future__ import annotations

import http.client
import json
import os
import time
import urllib.parse
from typing import Dict, Iterator, List, Optional

from repro.campaign.spec import CampaignSpec
from repro.service.protocol import (PROTOCOL_VERSION, TERMINAL_STATES,
                                    ProtocolError, parse_event_line,
                                    spec_to_payload, validate_job_id)
from repro.service.server import (DEFAULT_HOST, DEFAULT_PORT,
                                  SERVICE_URL_ENV, default_host,
                                  default_port)


class ServiceError(RuntimeError):
    """The daemon rejected a request or could not be reached."""


def default_url() -> str:
    return (os.environ.get(SERVICE_URL_ENV, "").strip()
            or f"http://{default_host()}:{default_port()}")


class ServiceClient:
    """Thin HTTP client speaking the service protocol.

    ``timeout`` bounds every non-streaming request; ``watch`` uses its
    own generous per-read timeout because a trial may legitimately take
    a while.
    """

    def __init__(self, url: Optional[str] = None, timeout: float = 30.0):
        parsed = urllib.parse.urlsplit(url or default_url())
        if parsed.scheme not in ("http", ""):
            raise ServiceError(f"campaign service URLs are http:// only, "
                               f"got {parsed.scheme!r}")
        self.host = parsed.hostname or DEFAULT_HOST
        self.port = parsed.port or DEFAULT_PORT
        self.timeout = timeout

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _request(self, method: str, path: str,
                 body: Optional[dict] = None,
                 timeout: Optional[float] = None) -> Dict[str, object]:
        conn = http.client.HTTPConnection(
            self.host, self.port,
            timeout=timeout if timeout is not None else self.timeout)
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                raw = response.read()
            except OSError as exc:
                raise ServiceError(
                    f"cannot reach campaign service at "
                    f"http://{self.host}:{self.port}{path}: {exc}") from None
            try:
                parsed = json.loads(raw.decode("utf-8"))
            except ValueError:
                raise ServiceError(
                    f"non-JSON response from {path} "
                    f"(HTTP {response.status})") from None
            if response.status >= 400:
                raise ServiceError(parsed.get("error")
                                   or f"HTTP {response.status} from {path}")
            found = parsed.get("version")
            if found != PROTOCOL_VERSION:
                raise ServiceError(
                    f"daemon speaks protocol v{found}, this client "
                    f"v{PROTOCOL_VERSION} — upgrade one of them")
            return parsed
        finally:
            conn.close()

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        return self._request("GET", "/healthz")

    def wait_until_up(self, timeout: float = 10.0,
                      interval: float = 0.1) -> Dict[str, object]:
        """Poll ``/healthz`` until the daemon answers (startup races)."""
        deadline = time.time() + timeout
        while True:
            try:
                return self.health()
            except ServiceError:
                if time.time() >= deadline:
                    raise
                time.sleep(interval)

    def metrics(self) -> Dict[str, object]:
        return self._request("GET", "/metrics")

    def submit(self, spec: CampaignSpec) -> Dict[str, object]:
        """Submit ``spec``; returns the job status payload (``id`` …)."""
        try:
            payload = spec_to_payload(spec)
        except ProtocolError as exc:
            raise ServiceError(str(exc)) from None
        return self._request("POST", "/jobs", body={"spec": payload})["job"]

    def jobs(self) -> List[Dict[str, object]]:
        return self._request("GET", "/jobs")["jobs"]

    def status(self, job_id: str) -> Dict[str, object]:
        return self._request("GET", f"/jobs/{validate_job_id(job_id)}")["job"]

    def cancel(self, job_id: str) -> Dict[str, object]:
        return self._request(
            "POST", f"/jobs/{validate_job_id(job_id)}/cancel")["job"]

    def shutdown(self, drain: bool = True) -> Dict[str, object]:
        return self._request("POST", "/shutdown", body={"drain": drain})

    def watch(self, job_id: str,
              read_timeout: float = 600.0) -> Iterator[Dict[str, object]]:
        """Stream the job's event log as it grows.

        Yields each JSONL event dict; returns after the job's terminal
        event.  Blank keep-alive lines are swallowed.
        """
        job_id = validate_job_id(job_id)
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=read_timeout)
        try:
            try:
                conn.request("GET", f"/jobs/{job_id}/watch")
                response = conn.getresponse()
            except OSError as exc:
                raise ServiceError(
                    f"cannot reach campaign service at "
                    f"http://{self.host}:{self.port}: {exc}") from None
            if response.status >= 400:
                raw = response.read()
                try:
                    message = json.loads(raw.decode("utf-8")).get("error")
                except ValueError:
                    message = f"HTTP {response.status}"
                raise ServiceError(message or f"HTTP {response.status}")
            while True:
                line = response.readline()
                if not line:
                    return
                event = parse_event_line(line.decode("utf-8"))
                if event is None:
                    continue
                yield event
                if event.get("event") in TERMINAL_STATES \
                        or event.get("event") == "done":
                    return
        finally:
            conn.close()

    def wait(self, job_id: str, timeout: float = 600.0,
             interval: float = 0.1) -> Dict[str, object]:
        """Poll ``status`` until the job reaches a terminal state."""
        deadline = time.time() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in TERMINAL_STATES:
                return status
            if time.time() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {status['state']!r} after "
                    f"{timeout:g}s")
            time.sleep(interval)
