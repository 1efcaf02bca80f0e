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

    @given(seed=st.integers(0, 2 ** 32 - 1),
           cuts=st.lists(st.floats(0.0, 25.0), min_size=1, max_size=8),
           handed_back=st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_take_through_is_popleft_while_due(self, seed, cuts, handed_back):
        """``take_through(t)`` takes what ``popleft`` takes while
        ``next_time() <= t``, handed-back injections first."""
        pages = [("x", 0), ("x", 1), ("g", 0)]

        def queue():
            return ExponentialInjector(
                mtbe=0.3, rng=np.random.default_rng(seed)).queue(20.0, pages)

        ours, oracle = queue(), queue()
        for q in (ours, oracle):
            back = [q.popleft() for _ in range(min(handed_back, len(q)))]
            q.push_front(back)
        for cut in sorted(cuts):
            expected = []
            while oracle.next_time() <= cut:
                expected.append(oracle.popleft())
            assert ours.take_through(cut) == expected
            assert len(ours) == len(oracle)
            assert ours.next_time() == oracle.next_time()
        assert ours.drain() == oracle.drain()


def overdraw_sample_times(rng: np.random.Generator, mtbe: float,
                          horizon: float) -> list:
    """The single over-draw the chunked ``sample_times`` replaced: all
    ``max_events`` gaps at once, one ``cumsum``, then the rewind and the
    advance by the gaps a one-at-a-time loop takes.  The reference of
    the chunked draw."""
    if horizon <= 0:
        return []
    max_events = max(16, int(8 * horizon / mtbe) + 16)
    rewind = rng.bit_generator.state
    times = np.cumsum(rng.exponential(mtbe, size=max_events))
    count = int(np.searchsorted(times, horizon))
    rng.bit_generator.state = rewind
    rng.exponential(mtbe, size=min(count + 1, max_events))
    return times[:count].tolist()


class TestChunkedDraw:
    """A campaign trial's schedule spans 50 ideal solve times at its
    rate, drawn in chunks of about the expected count."""

    PAGES = [(name, page) for name in ("x", "g", "d0", "d1", "q")
             for page in range(8)]
    IDEAL = 0.0172

    @pytest.mark.parametrize("rate", [0.5, 1.0, 5.0, 20.0, 50.0])
    def test_queue_is_the_overdraw(self, rate):
        """Every time (``float.hex``), every page pick and the generator
        state after ``queue()`` equal the over-draw's, over 24 seeds."""
        mtbe, horizon = self.IDEAL / rate, 50 * self.IDEAL
        for seed in range(24):
            def rng():
                return np.random.default_rng(
                    np.random.SeedSequence([seed, int(rate * 10)]))
            ours, oracle = rng(), rng()
            queue = ExponentialInjector(mtbe, rng=ours).queue(horizon,
                                                              self.PAGES)
            times = overdraw_sample_times(oracle, mtbe, horizon)
            picks = oracle.integers(0, len(self.PAGES), size=len(times))
            assert [t.hex() for t in queue._times] == [t.hex() for t in times]
            assert queue._picks == picks.tolist()
            assert ours.bit_generator.state == oracle.bit_generator.state

    def test_the_cap_binds_as_before(self):
        """Gaps too short to reach the horizon: ``max_events`` times, in
        several chunks, and the generator advanced by ``max_events``."""
        mtbe, horizon = self.IDEAL / 20.0, 50 * self.IDEAL
        ours = _TinyGaps(np.random.PCG64(5))
        oracle = _TinyGaps(np.random.PCG64(5))
        times = ExponentialInjector(mtbe, rng=ours).sample_times(horizon)
        expected = overdraw_sample_times(oracle, mtbe, horizon)
        assert len(times) == max(16, int(8 * horizon / mtbe) + 16) == 8016
        assert [t.hex() for t in times] == [t.hex() for t in expected]
        assert ours.bit_generator.state == oracle.bit_generator.state
