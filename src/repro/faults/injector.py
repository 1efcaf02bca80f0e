"""Exponential-MTBE page-fault injector.

Seeding hygiene
---------------
No module-level RNG state is used anywhere: every injector owns exactly
one :class:`numpy.random.Generator`, built by :func:`derive_rng` from
whatever seed material the caller threads through — an integer, a
:class:`numpy.random.SeedSequence` (the campaign engine keys one per
trial on the campaign seed and the trial's content, so parallel trials
are reproducible and statistically independent), or an existing
Generator.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from typing import Iterable, List, NamedTuple, Sequence, Tuple, Union

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


class InjectionQueue:
    """A time-sorted injection schedule, taken from the front.

    The schedule spans 50 ideal solve times while a solve reaches a
    fraction of it, so the queue keeps the drawn times and page picks and
    builds an :class:`Injection` only when :meth:`popleft` takes it.
    Injections handed back with :meth:`push_front` are taken first again.
    """

    __slots__ = ("_times", "_picks", "_pages", "_next", "_front")

    def __init__(self, times: Sequence[float] = (), picks: Sequence[int] = (),
                 pages: Sequence[Tuple[str, int]] = (),
                 front: Iterable[Injection] = ()):
        self._times = times
        self._picks = picks
        self._pages = pages
        self._next = 0
        self._front = deque(front)

    def __len__(self) -> int:
        return len(self._front) + len(self._times) - self._next

    def next_time(self) -> float:
        """Time of the injection :meth:`popleft` would take (``inf`` if none)."""
        if self._front:
            return self._front[0].time
        if self._next < len(self._times):
            return self._times[self._next]
        return math.inf

    def popleft(self) -> Injection:
        if self._front:
            return self._front.popleft()
        k = self._next
        if k >= len(self._times):
            raise IndexError("pop from an empty injection queue")
        self._next = k + 1
        return Injection(self._times[k], *self._pages[self._picks[k]])

    def take_through(self, time: float) -> List[Injection]:
        """Take every injection due at or before ``time``, in order: what
        :meth:`popleft` gives while :meth:`next_time` is at most ``time``
        (the drawn times are sorted, so one bisection finds where they
        stop)."""
        front = self._front
        taken = []
        while front and front[0].time <= time:
            taken.append(front.popleft())
        if not front:
            times, picks, pages = self._times, self._picks, self._pages
            k = self._next
            self._next = stop = bisect_right(times, time, k)
            taken += [Injection(times[j], *pages[picks[j]])
                      for j in range(k, stop)]
        return taken

    def push_front(self, injections: Iterable[Injection]) -> None:
        """Hand back time-sorted injections, each at or before every one
        still queued; they are taken next, in order."""
        self._front.extendleft(reversed(list(injections)))

    def drain(self) -> List[Injection]:
        """Take every remaining injection, in order."""
        return [self.popleft() for _ in range(len(self))]


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
        """Error times in ``[0, horizon)`` drawn from the Poisson process.

        The times are the running sums of exponential gaps up to the first
        one at or past the horizon, at most ``max_events`` of them.  The
        gaps are drawn in chunks of about the expected count and summed by
        ``np.cumsum``, each chunk's first gap added to the last time before
        (sequential, so each time has the bits of ``t += gap``), until a
        time reaches the horizon; then the generator is rewound and
        advanced by exactly the gaps a draw-one-at-a-time loop would have
        taken, crossing gap included, so what it draws next is unchanged.
        """
        if horizon <= 0:
            return []
        # The number of draws is O(horizon / mtbe), bounded for sanity.
        max_events = max(16, int(8 * horizon / self.mtbe) + 16)
        expected = horizon / self.mtbe
        chunk = int(expected + 4 * math.sqrt(expected)) + 16
        rng = self._rng
        rewind = rng.bit_generator.state
        chunks: List[np.ndarray] = []
        drawn, last = 0, 0.0
        while drawn < max_events and last < horizon:
            gaps = rng.exponential(self.mtbe, size=min(chunk,
                                                       max_events - drawn))
            if chunks:
                gaps[0] += last
            chunks.append(np.cumsum(gaps, out=gaps))
            drawn += gaps.shape[0]
            last = gaps[-1]
        times = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        count = int(np.searchsorted(times, horizon))  # first time >= horizon
        rng.bit_generator.state = rewind
        rng.exponential(self.mtbe, size=min(count + 1, max_events))
        return times[:count].tolist()

    def queue(self, horizon: float,
              pages: Sequence[Tuple[str, int]]) -> InjectionQueue:
        """Full DUE schedule over ``[0, horizon)`` targeting ``pages``, as
        a queue that builds each :class:`Injection` only when it is taken
        (:meth:`InjectionQueue.drain` lists them all).

        ``pages`` is the page universe of the memory manager: a list of
        (vector name, page index) pairs.  Each error picks one uniformly.
        """
        if not pages:
            return InjectionQueue()
        times = self.sample_times(horizon)
        picks = self._rng.integers(0, len(pages), size=len(times))
        return InjectionQueue(times, picks.tolist(), pages)


class _NullInjector(ExponentialInjector):
    """Injector that never fires (normalised rate zero)."""

    def __init__(self, rng: SeedLike = DEFAULT_SEED):
        # Bypass the parent validation: represent "never" directly.
        self.mtbe = float("inf")
        self._rng = derive_rng(rng)

    def sample_times(self, horizon: float) -> List[float]:
        return []


def null_injector(rng: SeedLike = DEFAULT_SEED) -> ExponentialInjector:
    """An injector that injects nothing (used for fault-free baselines)."""
    return _NullInjector(rng)
