"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
and prints the corresponding rows/series.  Set ``REPRO_FULL=1`` to run
the full-size sweeps (all matrices, all rates, more repetitions); the
default configuration is scaled down so the whole harness completes in a
few minutes on a laptop.
"""

from __future__ import annotations

import os

import pytest

from repro.campaign.spec import SolverKnobs
from repro.experiments.common import ExperimentConfig

FULL = os.environ.get("REPRO_FULL", "0") == "1"


def pytest_collection_modifyitems(items):
    """Mark everything under benchmarks/ as ``bench`` (and ``slow``).

    Tier-1 (`pytest` with the default addopts) deselects these markers;
    the weekly CI job opts back in with ``-m "bench or slow"``.
    """
    for item in items:
        item.add_marker(pytest.mark.bench)
        item.add_marker(pytest.mark.slow)

#: Matrices used by the scaled-down default benchmark runs.
QUICK_MATRICES = ("qa8fm", "Dubcova3", "consph", "thermomech")
#: Error rates used by the scaled-down Figure 4 sweep.
QUICK_RATES = (1.0, 10.0, 50.0)


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """Experiment configuration shared by the benchmark harness."""
    if FULL:
        return ExperimentConfig(repetitions=2,
                                knobs=SolverKnobs(max_iterations=20000))
    return ExperimentConfig(
        matrices=QUICK_MATRICES, repetitions=1,
        knobs=SolverKnobs(max_iterations=6000, tolerance=1e-9))


@pytest.fixture(scope="session")
def bench_rates():
    from repro.faults.scenarios import PAPER_ERROR_RATES
    return PAPER_ERROR_RATES if FULL else QUICK_RATES
