"""Tests for the memory manager (registry, universe, detect and count)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.manager import MemoryManager
from repro.memory.pages import PagedVector


@pytest.fixture
def manager_with_vector():
    mm = MemoryManager()
    vec = mm.register(PagedVector(np.arange(64, dtype=float), name="x",
                                  page_size=16))
    return mm, vec


class TestRegistration:
    def test_register_requires_name(self):
        mm = MemoryManager()
        with pytest.raises(ValueError):
            mm.register(PagedVector(10))

    def test_duplicate_name_rejected(self):
        mm = MemoryManager()
        mm.register(PagedVector(10, name="x"))
        with pytest.raises(ValueError):
            mm.register(PagedVector(10, name="x"))

    def test_lookup_unknown_vector(self):
        mm = MemoryManager()
        with pytest.raises(KeyError):
            mm.vector("nope")

    def test_universe_in_registration_order(self):
        mm = MemoryManager()
        for name, n in (("x", 64), ("g", 20)):
            mm.register(PagedVector(np.zeros(n), name=name, page_size=16))
        assert mm.page_universe() == [("x", p) for p in range(4)] + \
            [("g", 0), ("g", 1)]


class TestFaultLifecycle:
    def test_poison_is_silent_until_touched(self, manager_with_vector):
        mm, vec = manager_with_vector
        before = vec.page(1).copy()
        mm.poison("x", 1, time=1.0)
        # Contents are conceptually lost but not yet blanked.
        assert np.array_equal(vec.page(1), before)
        assert mm.fault_count() == 0

    def test_touch_detects_and_blanks(self, manager_with_vector):
        mm, vec = manager_with_vector
        mm.poison("x", 1, time=1.0, iteration=7)
        event = mm.touch("x", 1, time=2.0)
        assert event is not None
        assert event.inject_time == 1.0
        assert event.detect_time == 2.0
        assert event.iteration == 7
        assert np.all(vec.page(1) == 0.0)
        assert mm.fault_count() == 1
        # detected once: a second access finds a (blank) healthy page
        assert mm.touch("x", 1, time=3.0) is None
        assert mm.fault_count() == 1

    def test_touch_clean_page_is_noop(self, manager_with_vector):
        mm, vec = manager_with_vector
        before = vec.page(2).copy()
        assert mm.touch("x", 2, time=1.0) is None
        assert np.array_equal(vec.page(2), before)

    def test_poison_out_of_range(self, manager_with_vector):
        mm, _ = manager_with_vector
        for page in (-1, 4, 9):
            with pytest.raises(IndexError):
                mm.poison("x", page, time=0.0)
        with pytest.raises(KeyError):
            mm.poison("nope", 0, time=0.0)


def _manager():
    """Two vectors of 4 pages."""
    mm = MemoryManager()
    for name in ("x", "g"):
        mm.register(PagedVector(np.arange(1.0, 65.0), name=name, page_size=16))
    return mm


_PAGE = st.tuples(st.sampled_from(["x", "g"]), st.integers(0, 3))


class TestDetectBatch:
    @given(injections=st.lists(st.tuples(st.floats(0.0, 1.0), _PAGE),
                               max_size=12))
    @settings(max_examples=120, deadline=None)
    def test_batch_is_poison_then_touch_per_injection(self, injections):
        """In order, duplicates included (a page hit twice in one batch):
        the same count and page contents."""
        batch = [(t, name, page) for t, (name, page) in injections]
        looped, batched = _manager(), _manager()
        for t, name, page in batch:
            looped.poison(name, page, time=t)
            assert looped.touch(name, page, time=1.5) is not None
        batched.detect_batch(batch)
        assert batched.fault_count() == looped.fault_count() == len(batch)
        for name in ("x", "g"):
            assert batched.vector(name).array.tobytes() == \
                looped.vector(name).array.tobytes()

    def test_blanks_only_the_detected_pages(self):
        mm = _manager()
        mm.detect_batch([(0.1, "x", 1), (0.2, "g", 3), (0.3, "x", 1)])
        assert mm.fault_count() == 3
        x, g = mm.vector("x"), mm.vector("g")
        assert np.all(x.page(1) == 0.0) and np.all(g.page(3) == 0.0)
        untouched = np.arange(1.0, 65.0)
        untouched[16:32] = 0.0
        assert np.array_equal(x.array, untouched)

    def test_a_page_out_of_range_stops_the_batch_where_poison_would(self):
        looped, batched = _manager(), _manager()
        batch = [(0.1, "x", 1), (0.2, "g", 9), (0.3, "x", 2)]
        with pytest.raises(IndexError):
            for t, name, page in batch:
                looped.poison(name, page, time=t)
                looped.touch(name, page, time=1.0)
        with pytest.raises(IndexError):
            batched.detect_batch(batch)
        assert batched.fault_count() == looped.fault_count() == 1
        for name in ("x", "g"):
            assert batched.vector(name).array.tobytes() == \
                looped.vector(name).array.tobytes()

    def test_an_unknown_vector_names_the_known_ones(self):
        with pytest.raises(KeyError, match="known"):
            _manager().detect_batch([(0.0, "nope", 0)])
