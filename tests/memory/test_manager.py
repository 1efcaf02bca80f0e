"""Tests for the memory manager (poison / detect / recover lifecycle)."""

import numpy as np
import pytest

from repro.memory.events import PageState
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

    def test_total_pages_and_universe(self, manager_with_vector):
        mm, vec = manager_with_vector
        assert mm.total_pages() == 4
        assert mm.page_universe() == [("x", p) for p in range(4)]

    def test_unregister(self, manager_with_vector):
        mm, _ = manager_with_vector
        mm.unregister("x")
        assert mm.total_pages() == 0


class TestFaultLifecycle:
    def test_poison_is_silent_until_touched(self, manager_with_vector):
        mm, vec = manager_with_vector
        mm.poison("x", 1, time=1.0)
        assert mm.state("x", 1) is PageState.POISONED
        # Contents are conceptually lost but not yet blanked.
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
        assert mm.state("x", 1) is PageState.LOST
        assert mm.fault_count() == 1

    def test_touch_clean_page_is_noop(self, manager_with_vector):
        mm, vec = manager_with_vector
        before = vec.page(2).copy()
        assert mm.touch("x", 2, time=1.0) is None
        assert np.array_equal(vec.page(2), before)

    def test_mark_recovered_restores_valid_state(self, manager_with_vector):
        mm, _ = manager_with_vector
        mm.poison("x", 0, time=0.5)
        mm.touch("x", 0, time=1.0)
        mm.mark_recovered("x", 0)
        assert mm.is_available("x", 0)
        assert not mm.has_faults()

    def test_mark_recovered_on_latent_poison_logs_event(self, manager_with_vector):
        mm, vec = manager_with_vector
        mm.poison("x", 3, time=0.1)
        mm.mark_recovered("x", 3)
        assert mm.fault_count() == 1
        assert np.all(vec.page(3) == 0.0)

    def test_overwrite_cures_latent_poison(self, manager_with_vector):
        mm, vec = manager_with_vector
        mm.poison("x", 2, time=0.1)
        mm.overwrite("x", 2)
        assert mm.is_available("x", 2)
        assert mm.touch("x", 2, time=1.0) is None
        assert mm.fault_count() == 0

    def test_overwrite_vector_equals_the_per_page_loop(self):
        """One bulk call == ``overwrite`` on every page, on a manager
        holding poisoned, lost and valid pages in two vectors."""
        def manager():
            mm = MemoryManager()
            for name in ("q", "g"):
                mm.register(PagedVector(np.arange(64, dtype=float), name=name,
                                        page_size=16))
                mm.poison(name, 0, time=0.1)            # latent poison
                mm.poison(name, 2, time=0.2)
                mm.touch(name, 2, time=0.3)             # detected: LOST
            return mm

        looped, bulk = manager(), manager()
        for page in range(4):
            looped.overwrite("q", page)
        bulk.overwrite_vector("q")
        for mm in (looped, bulk):
            assert mm.lost_pages() == [("g", 0), ("g", 2)]
            assert all(mm.is_available("q", page) for page in range(4))
            # q's latent poison is cured; g's is still there to detect
            assert mm.touch("q", 0, time=1.0) is None
            assert mm.touch("g", 0, time=1.0) is not None
            assert mm.fault_count() == 3
        assert bulk._pending == looped._pending
        assert bulk._state == looped._state
        with pytest.raises(KeyError):
            bulk.overwrite_vector("nope")

    def test_lost_pages_listing(self, manager_with_vector):
        mm, _ = manager_with_vector
        mm.poison("x", 1, time=0.0)
        mm.poison("x", 3, time=0.0)
        assert mm.lost_pages() == [("x", 1), ("x", 3)]
        assert mm.lost_pages("x") == [("x", 1), ("x", 3)]

    def test_reset_faults(self, manager_with_vector):
        mm, _ = manager_with_vector
        mm.poison("x", 1, time=0.0)
        mm.reset_faults()
        assert not mm.has_faults()

    def test_poison_out_of_range(self, manager_with_vector):
        mm, _ = manager_with_vector
        with pytest.raises(IndexError):
            mm.poison("x", 9, time=0.0)

    def test_fault_log_by_vector(self, manager_with_vector):
        mm, _ = manager_with_vector
        mm.poison("x", 0, time=0.0)
        mm.touch("x", 0, time=0.1)
        mm.poison("x", 1, time=0.2)
        mm.touch("x", 1, time=0.3)
        assert mm.log.by_vector() == {"x": 2}
