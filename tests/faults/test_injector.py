"""Tests for the exponential-MTBE fault injector."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injector import ExponentialInjector, Injection, null_injector


class TestExponentialInjector:
    def test_rejects_nonpositive_mtbe(self):
        with pytest.raises(ValueError):
            ExponentialInjector(0.0)

    def test_sample_times_within_horizon(self):
        inj = ExponentialInjector(mtbe=1.0, rng=1)
        times = inj.sample_times(10.0)
        assert all(0.0 <= t < 10.0 for t in times)
        assert times == sorted(times)

    def test_sample_times_empty_horizon(self):
        inj = ExponentialInjector(mtbe=1.0, rng=1)
        assert inj.sample_times(0.0) == []

    def test_mean_rate_roughly_matches_mtbe(self):
        inj = ExponentialInjector(mtbe=0.5, rng=12345)
        times = inj.sample_times(2000.0)
        # 4000 expected; allow a generous statistical margin.
        assert 3300 < len(times) < 4700

    def test_deterministic_given_seed(self):
        a = ExponentialInjector(mtbe=2.0, rng=7).sample_times(50.0)
        b = ExponentialInjector(mtbe=2.0, rng=7).sample_times(50.0)
        assert a == b

    def test_schedule_targets_registered_pages(self):
        pages = [("x", 0), ("x", 1), ("g", 0)]
        inj = ExponentialInjector(mtbe=0.3, rng=3)
        schedule = inj.queue(20.0, pages).drain()
        assert len(schedule) > 0
        for item in schedule:
            assert isinstance(item, Injection)
            assert (item.vector, item.page) in pages

    def test_schedule_empty_pages(self):
        inj = ExponentialInjector(mtbe=0.3, rng=3)
        assert inj.queue(20.0, []).drain() == []

    def test_from_normalized_rate(self):
        inj = ExponentialInjector.from_normalized_rate(rate=5.0, ideal_time=10.0)
        assert inj.mtbe == pytest.approx(2.0)

    def test_from_normalized_rate_zero_gives_null(self):
        inj = ExponentialInjector.from_normalized_rate(rate=0.0, ideal_time=10.0)
        assert inj.sample_times(100.0) == []

    def test_from_normalized_rate_validation(self):
        with pytest.raises(ValueError):
            ExponentialInjector.from_normalized_rate(rate=-1.0, ideal_time=1.0)
        with pytest.raises(ValueError):
            ExponentialInjector.from_normalized_rate(rate=1.0, ideal_time=0.0)

    def test_null_injector(self):
        inj = null_injector()
        assert inj.sample_times(1e9) == []


class TestPageTargetingDistribution:
    def test_uniform_page_selection(self):
        """Pages should be hit roughly uniformly (paper: uniform distribution)."""
        pages = [("v", p) for p in range(8)]
        inj = ExponentialInjector(mtbe=0.01, rng=99)
        schedule = inj.queue(50.0, pages).drain()
        counts = np.zeros(8)
        for item in schedule:
            counts[item.page] += 1
        assert len(schedule) > 1000
        # Each page should receive between 60% and 140% of the mean share.
        mean = counts.mean()
        assert np.all(counts > 0.6 * mean)
        assert np.all(counts < 1.4 * mean)


def loop_sample_times(rng: np.random.Generator, mtbe: float,
                      horizon: float) -> list:
    """The draw-one-gap-at-a-time loop ``sample_times`` replaced: the
    oracle of its vectorised draw."""
    if horizon <= 0:
        return []
    times = []
    t = 0.0
    max_events = max(16, int(8 * horizon / mtbe) + 16)
    for _ in range(max_events):
        t += float(rng.exponential(mtbe))
        if t >= horizon:
            break
        times.append(t)
    return times


class _TinyGaps(np.random.Generator):
    """Gaps a billion times too short: no draw reaches the horizon, so
    the ``max_events`` cap ends the schedule."""

    def exponential(self, scale=1.0, size=None):
        return super().exponential(scale, size) * 1e-9


class TestVectorisedDraw:
    @given(seed=st.integers(0, 2 ** 32 - 1), mtbe=st.floats(1e-3, 10.0),
           horizon=st.floats(-5.0, 200.0), capped=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_sample_times_is_the_loop(self, seed, mtbe, horizon, capped):
        """Same times (``float.hex``) and the same generator state after:
        the page picks and anything drawn next are unchanged."""
        make = _TinyGaps if capped else np.random.Generator
        ours, oracle = make(np.random.PCG64(seed)), make(np.random.PCG64(seed))
        times = ExponentialInjector(mtbe, rng=ours).sample_times(horizon)
        expected = loop_sample_times(oracle, mtbe, horizon)
        assert [t.hex() for t in times] == [t.hex() for t in expected]
        if capped and horizon >= 1e-3:
            assert len(times) == max(16, int(8 * horizon / mtbe) + 16)
        assert ours.bit_generator.state == oracle.bit_generator.state
        assert ours.integers(0, 1000, size=4).tolist() == \
            oracle.integers(0, 1000, size=4).tolist()

    def test_queue_builds_the_schedule_as_it_is_taken(self):
        """Against the eager list the queue replaced: the times, then one
        ``integers`` call for the page picks, from the same generator."""
        pages = [("x", 0), ("x", 1), ("g", 0)]
        rng = np.random.default_rng(3)
        times = ExponentialInjector(mtbe=0.3, rng=rng).sample_times(20.0)
        picks = rng.integers(0, len(pages), size=len(times)).tolist()
        schedule = [Injection(t, *pages[k]) for t, k in zip(times, picks, strict=True)]
        queue = ExponentialInjector(
            mtbe=0.3, rng=np.random.default_rng(3)).queue(20.0, pages)
        assert len(queue) == len(schedule) > 2
        assert queue.next_time() == schedule[0].time
        first, second = queue.popleft(), queue.popleft()
        assert [first, second] == schedule[:2]
        queue.push_front([first, second])
        assert len(queue) == len(schedule)
        assert queue.drain() == schedule
        assert queue.next_time() == math.inf
        with pytest.raises(IndexError):
            queue.popleft()
