"""Exponential-MTBE page-fault injector.

Seeding hygiene
---------------
No module-level RNG state is used anywhere: every injector owns exactly
one :class:`numpy.random.Generator`, built by :func:`derive_rng` from
whatever seed material the caller threads through — an integer, a
:class:`numpy.random.SeedSequence` (the campaign engine spawns one child
sequence per trial from the campaign seed, so parallel trials are
reproducible and statistically independent), or an existing Generator.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from repro.config import DEFAULT_SEED

#: Anything :func:`derive_rng` can turn into a Generator.
SeedLike = Union[int, np.random.SeedSequence, np.random.Generator, None]


def derive_rng(seed: SeedLike = DEFAULT_SEED) -> np.random.Generator:
    """One Generator per consumer, from an int / SeedSequence / Generator.

    Passing a Generator threads it through unchanged (shared stream);
    anything else creates a fresh, independent stream.  ``None`` falls
    back to :data:`~repro.config.DEFAULT_SEED` so that *nothing* in this
    package ever touches NumPy's global RNG.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


class Injection(NamedTuple):
    """One scheduled DUE: at ``time``, page ``page`` of ``vector`` is lost.

    A tuple, not a dataclass: a campaign schedules several times the
    injections a solve ever reaches, so constructing one is on the hot
    path and stays a single allocation."""

    time: float
    vector: str
    page: int


class ExponentialInjector:
    """Generates DUE schedules from an exponential inter-arrival process.

    Parameters
    ----------
    mtbe:
        Mean time between errors, in the same (simulated) time unit as the
        solver's cost model.  ``float('inf')`` disables injection.
    rng:
        Seed material: an integer, a :class:`numpy.random.SeedSequence`
        or an existing :class:`numpy.random.Generator` (see
        :func:`derive_rng`).
    """

    def __init__(self, mtbe: float, rng: SeedLike = DEFAULT_SEED):
        if mtbe <= 0:
            raise ValueError(f"MTBE must be positive, got {mtbe}")
        self.mtbe = float(mtbe)
        self._rng = derive_rng(rng)

    # ------------------------------------------------------------------
    @classmethod
    def from_normalized_rate(cls, rate: float, ideal_time: float,
                             rng: SeedLike = DEFAULT_SEED
                             ) -> "ExponentialInjector":
        """Build an injector from the paper's normalised error frequency.

        A normalised frequency ``n`` means ``n`` expected errors per ideal
        convergence time ``tau``, i.e. MTBE = tau / n (Section 5.4).
        """
        if rate < 0:
            raise ValueError(f"normalised rate must be non-negative, got {rate}")
        if ideal_time <= 0:
            raise ValueError(f"ideal time must be positive, got {ideal_time}")
        if rate == 0:
            return _NullInjector(rng)
        return cls(ideal_time / rate, rng=rng)

    # ------------------------------------------------------------------
    def sample_times(self, horizon: float) -> List[float]:
        """Error times in ``[0, horizon)`` drawn from the Poisson process."""
        if horizon <= 0:
            return []
        times: List[float] = []
        t = 0.0
        # Draw inter-arrival gaps until the horizon is passed.  The number
        # of draws is O(horizon / mtbe), bounded for sanity.
        max_events = max(16, int(8 * horizon / self.mtbe) + 16)
        for _ in range(max_events):
            t += float(self._rng.exponential(self.mtbe))
            if t >= horizon:
                break
            times.append(t)
        return times

    def schedule(self, horizon: float,
                 pages: Sequence[Tuple[str, int]]) -> List[Injection]:
        """Full DUE schedule over ``[0, horizon)`` targeting ``pages``.

        ``pages`` is the page universe of the memory manager: a list of
        (vector name, page index) pairs.  Each error picks one uniformly.
        """
        if not pages:
            return []
        times = self.sample_times(horizon)
        picks = self._rng.integers(0, len(pages), size=len(times))
        return [Injection(t, *pages[k])
                for t, k in zip(times, picks.tolist(), strict=True)]

    def expected_errors(self, horizon: float) -> float:
        """Expected number of errors over ``horizon``."""
        return horizon / self.mtbe


class _NullInjector(ExponentialInjector):
    """Injector that never fires (normalised rate zero)."""

    def __init__(self, rng: SeedLike = DEFAULT_SEED):
        # Bypass the parent validation: represent "never" directly.
        self.mtbe = float("inf")
        self._rng = derive_rng(rng)

    def sample_times(self, horizon: float) -> List[float]:
        return []

    def expected_errors(self, horizon: float) -> float:
        return 0.0


def null_injector(rng: SeedLike = DEFAULT_SEED) -> ExponentialInjector:
    """An injector that injects nothing (used for fault-free baselines)."""
    return _NullInjector(rng)
