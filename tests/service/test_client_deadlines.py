"""The poll deadlines run on the monotonic clock: a step of the wall
clock (NTP, a suspended VM, an operator's ``date -s``) neither stretches
nor cuts ``ServiceClient.wait_until_up`` or the service tests' ``wait``."""

import pytest
import test_service

from repro.service import ServiceClient
from repro.service import client as client_module
from repro.service.client import ServiceError


class SteppedClock:
    """A stand-in for the ``time`` module whose wall clock steps back one
    hour after its first read; ``sleep`` advances both clocks."""

    def __init__(self):
        self.elapsed = 0.0
        self.wall_reads = 0
        self.sleeps = 0

    def time(self):
        self.wall_reads += 1
        step = 3600.0 if self.wall_reads > 1 else 0.0
        return 1.7e9 + self.elapsed - step

    def monotonic(self):
        return self.elapsed

    def sleep(self, seconds):
        self.sleeps += 1
        if self.sleeps > 1000:
            raise AssertionError("the poll deadline never came")
        self.elapsed += seconds


class ForeverRunning(ServiceClient):
    """A client to a daemon whose job never ends and whose health
    endpoint never answers."""

    def status(self, job_id):
        return {"id": job_id, "state": "running"}

    def health(self):
        raise ServiceError("connection refused")


@pytest.fixture
def clock(monkeypatch):
    fake = SteppedClock()
    monkeypatch.setattr(client_module, "time", fake)
    monkeypatch.setattr(test_service, "time", fake)
    return fake


def test_wait_times_out_across_a_wall_clock_step(clock):
    client = ForeverRunning("http://127.0.0.1:1")
    with pytest.raises(ServiceError, match="still 'running' after 0.3s"):
        test_service.wait(client, "job-1", timeout=0.3, interval=0.1)
    assert clock.sleeps <= 4


def test_wait_until_up_times_out_across_a_wall_clock_step(clock):
    client = ForeverRunning("http://127.0.0.1:1")
    with pytest.raises(ServiceError, match="connection refused"):
        client.wait_until_up(timeout=0.3, interval=0.1)
    assert clock.sleeps <= 4
