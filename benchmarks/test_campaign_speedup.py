"""Acceptance benchmark: the 200-trial parallel fault-injection campaign.

Reproduces the PR's acceptance criterion: a 200-trial campaign on an
n ~= 2000 Laplacian with FEIR recovery must

* produce byte-identical aggregated statistics between the serial and
  the process-pool executors under the same campaign seed (asserted
  unconditionally), and
* run >= 2x faster on the process pool than serially when at least 4
  physical cores are available (asserted only then — single-core CI
  boxes still verify the equivalence half).

Run directly with::

    PYTHONPATH=src python -m pytest benchmarks/test_campaign_speedup.py \
        -m bench -q -s
"""

from __future__ import annotations

import os
import time

import pytest

from repro.campaign.engine import run_campaign
from repro.campaign.executors import ProcessPoolExecutor, SerialExecutor
from repro.campaign.spec import CampaignSpec, SolverKnobs

#: 1 matrix x 1 method x 4 rates x 50 repetitions = 200 trials.
ACCEPTANCE_SPEC = dict(
    matrices=["laplacian2d:45"],          # n = 2025
    methods=("FEIR",),
    rates=(1.0, 2.0, 5.0, 10.0),
    repetitions=50,
    seed=20150715,
    name="acceptance-200",
)


def acceptance_spec() -> CampaignSpec:
    return CampaignSpec(knobs=SolverKnobs(tolerance=1e-8,
                                          max_iterations=4000,
                                          page_size=128),
                        **ACCEPTANCE_SPEC)


@pytest.fixture(scope="module")
def serial_run():
    spec = acceptance_spec()
    started = time.perf_counter()
    result = run_campaign(spec, executor=SerialExecutor())
    elapsed = time.perf_counter() - started
    return result, elapsed


@pytest.fixture(scope="module")
def pool_run():
    spec = acceptance_spec()
    workers = min(4, os.cpu_count() or 1)
    started = time.perf_counter()
    result = run_campaign(spec,
                          executor=ProcessPoolExecutor(max_workers=workers))
    elapsed = time.perf_counter() - started
    return result, elapsed, workers


def test_campaign_has_200_trials(serial_run):
    result, _ = serial_run
    assert len(result) == 200


def test_every_trial_converged(serial_run):
    result, _ = serial_run
    diverged = [t for t in result.trials if not t.converged]
    assert not diverged, f"{len(diverged)} FEIR trials diverged"


def test_faults_were_injected(serial_run):
    result, _ = serial_run
    assert sum(t.faults_injected for t in result.trials) > 200


def test_pool_statistics_byte_identical(serial_run, pool_run):
    serial_result, _ = serial_run
    pool_result, _, _ = pool_run
    assert pool_result.fingerprint() == serial_result.fingerprint()
    for a, b in zip(serial_result.sorted_trials(),
                    pool_result.sorted_trials(), strict=True):
        assert a.solve_time == b.solve_time
        assert a.iterations == b.iterations
        assert a.faults_injected == b.faults_injected


def test_pool_speedup_on_multicore(serial_run, pool_run):
    serial_result, serial_elapsed = serial_run
    pool_result, pool_elapsed, workers = pool_run
    speedup = serial_elapsed / max(pool_elapsed, 1e-9)
    print(f"\ncampaign wall time: serial {serial_elapsed:.2f}s, "
          f"pool({workers}) {pool_elapsed:.2f}s, speedup {speedup:.2f}x")
    if (os.cpu_count() or 1) < 4:
        pytest.skip(f"speedup criterion needs >= 4 cores, "
                    f"host has {os.cpu_count()}")
    assert speedup >= 2.0, (
        f"process pool speedup {speedup:.2f}x < 2x on {workers} workers")
