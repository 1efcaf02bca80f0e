"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.matrices.stencil import poisson_2d_5pt, stencil_rhs
from repro.matrices.random_spd import random_dense_spd, random_sparse_spd
from repro.sanitize import analyze, reset, sanitizer_enabled


@pytest.fixture(autouse=True)
def sanitizer_verdict():
    """Under ``REPRO_TSAN=1`` every test ends in the sanitizer's verdict
    on its own events: a data race or a lock-order cycle among the
    factory-made locks it took fails it.  (It is the repo's lock-order
    check, and what lets the ``REPRO_TSAN=1`` CI steps go red.)"""
    if not sanitizer_enabled():
        yield
        return
    reset()
    yield
    report = analyze()
    reset()
    if not report.ok:
        pytest.fail(report.render())


@pytest.fixture(scope="session")
def small_spd_system():
    """A small SPD system (2-D Poisson) with a known solution."""
    A = poisson_2d_5pt(24)           # n = 576
    x_star = np.ones(A.shape[0])
    b = A @ x_star
    return A, b, x_star


@pytest.fixture(scope="session")
def medium_spd_system():
    """A medium SPD system used by the resilient solver tests."""
    A = poisson_2d_5pt(40)           # n = 1600
    rng = np.random.default_rng(7)
    x_star = rng.standard_normal(A.shape[0])
    b = A @ x_star
    return A, b, x_star


@pytest.fixture(scope="session")
def dense_spd_block():
    """A dense SPD matrix for diagonal-block recovery tests."""
    return random_dense_spd(48, condition=50.0, seed=3)


@pytest.fixture(scope="session")
def random_sparse_system():
    """A random sparse SPD system (non-stencil sparsity)."""
    A = random_sparse_spd(400, density=0.02, seed=11)
    b = stencil_rhs(A, kind="random", seed=5)
    return A, b
