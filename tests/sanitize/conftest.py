"""Fixtures shared by the sanitizer suites."""

from __future__ import annotations

import pytest

from repro.sanitize import enabled, instrument


@pytest.fixture()
def tsan():
    """The sanitizer on over an empty log, emptied again afterwards (so
    a test that seeds a race or a cycle leaves none behind)."""
    with enabled(True):
        instrument.reset()
        yield
        instrument.reset()
