"""Client library for the campaign service daemon.

Stdlib-only (``http.client``): submit campaigns, poll status, stream
``watch`` events, cancel jobs and shut the daemon down.  The daemon URL
defaults to ``REPRO_SERVICE_URL`` and falls back to the daemon's own
host/port defaults, so a client on the daemon's machine needs no
configuration at all.

A client keeps its HTTP/1.1 connections alive for its next request: one
used from one thread opens a single connection for its whole life, and
:meth:`ServiceClient.close` closes what it keeps.

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
        #: Idle kept-alive connections (LIFO); one in use is never here.
        self._idle: List[http.client.HTTPConnection] = []

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _send(self, method: str, path: str, body: Optional[dict],
              timeout: float):
        """Send a request on an idle connection, else a new one: return
        it and the response, headers read.  A reused one that fails before
        the response (the daemon closed it) is replaced once by a new one."""
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if body is None else {"Content-Type": "application/json"}
        try:
            conn = self._idle.pop()
            conn.sock.settimeout(timeout)
        except IndexError:
            conn = None
        while True:
            reused = conn is not None
            conn = conn or http.client.HTTPConnection(self.host, self.port,
                                                      timeout=timeout)
            try:
                conn.request(method, path, body=payload, headers=headers)
                return conn, conn.getresponse()
            except OSError as exc:
                conn.close()
                if not (reused and isinstance(
                        exc, (ConnectionResetError, BrokenPipeError))):
                    raise self._unreachable(path, exc) from None
            conn = None

    def _unreachable(self, path: str, exc: OSError) -> ServiceError:
        return ServiceError(f"cannot reach campaign service at "
                            f"http://{self.host}:{self.port}{path}: {exc}")

    def _release(self, conn: http.client.HTTPConnection,
                 response: http.client.HTTPResponse) -> None:
        """Pool ``conn`` if its response is read and it stays open."""
        if response.isclosed() and not response.will_close:
            self._idle.append(conn)
        else:
            conn.close()

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None,
                 timeout: Optional[float] = None) -> Dict[str, object]:
        conn, response = self._send(
            method, path, body, self.timeout if timeout is None else timeout)
        try:
            raw = response.read()
        except OSError as exc:
            raise self._unreachable(path, exc) from None
        finally:
            self._release(conn, response)
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

    def close(self) -> None:
        """Close every idle connection; a later request opens a new one."""
        idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        return self._request("GET", "/healthz")

    def wait_until_up(self, timeout: float = 10.0,
                      interval: float = 0.1) -> Dict[str, object]:
        """Poll ``/healthz`` until the daemon answers (startup races)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.health()
            except ServiceError:
                if time.monotonic() >= deadline:
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
        event, with the body read to its end, so the connection serves
        the next request.  One left early, or whose read fails, is
        closed.  Blank keep-alive lines are swallowed.
        """
        job_id = validate_job_id(job_id)
        conn, response = self._send("GET", f"/jobs/{job_id}/watch", None,
                                    read_timeout)
        try:
            if response.status >= 400:
                raw = response.read()
                try:
                    message = json.loads(raw.decode("utf-8")).get("error")
                except ValueError:
                    message = f"HTTP {response.status}"
                raise ServiceError(message or f"HTTP {response.status}")
            tail = b""
            while data := response.read1():
                *lines, tail = (tail + data).split(b"\n")
                for line in lines:
                    event = parse_event_line(line.decode("utf-8"))
                    if event is None:
                        continue
                    if event.get("event") in TERMINAL_STATES:
                        response.read()  # the zero chunk that ends the body
                    yield event
                    if response.isclosed():
                        return
        finally:
            self._release(conn, response)
