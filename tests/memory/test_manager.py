"""Tests for the memory manager (poison / detect / recover lifecycle)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert mm.state("x", 0) is PageState.VALID
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
        mm.overwrite_vector("x")
        assert mm.state("x", 2) is PageState.VALID
        assert mm.touch("x", 2, time=1.0) is None
        assert mm.fault_count() == 0

    def test_overwrite_vector_cures_only_its_own_pages(self):
        """On a manager holding poisoned, lost and valid pages in two
        vectors, overwriting one leaves the other's faults in place."""
        mm = MemoryManager()
        for name in ("q", "g"):
            mm.register(PagedVector(np.arange(64, dtype=float), name=name,
                                    page_size=16))
            mm.poison(name, 0, time=0.1)            # latent poison
            mm.poison(name, 2, time=0.2)
            mm.touch(name, 2, time=0.3)             # detected: LOST
        mm.overwrite_vector("q")
        assert mm.lost_pages() == [("g", 0), ("g", 2)]
        assert all(mm.state("q", page) is PageState.VALID
                   for page in range(4))
        # q's latent poison is cured; g's is still there to detect
        assert mm.touch("q", 0, time=1.0) is None
        assert mm.touch("g", 0, time=1.0) is not None
        assert mm.fault_count() == 3
        with pytest.raises(KeyError):
            mm.overwrite_vector("nope")

    def test_lost_pages_listing(self, manager_with_vector):
        mm, _ = manager_with_vector
        mm.poison("x", 1, time=0.0)
        mm.poison("x", 3, time=0.0)
        assert mm.lost_pages() == [("x", 1), ("x", 3)]
        assert mm.lost_pages("x") == [("x", 1), ("x", 3)]

    def test_poison_out_of_range(self, manager_with_vector):
        mm, _ = manager_with_vector
        with pytest.raises(IndexError):
            mm.poison("x", 9, time=0.0)


def _manager(latent, lost):
    """Two vectors of 4 pages, some pages latently poisoned or LOST."""
    mm = MemoryManager()
    for name in ("x", "g"):
        mm.register(PagedVector(np.arange(1.0, 65.0), name=name, page_size=16))
    for name, page in latent:
        mm.poison(name, page, time=0.01)
    for name, page in lost:
        mm.poison(name, page, time=0.02)
        mm.touch(name, page, time=0.03)
    return mm


_PAGE = st.tuples(st.sampled_from(["x", "g"]), st.integers(0, 3))


class TestDetectBatch:
    @given(injections=st.lists(st.tuples(st.floats(0.0, 1.0), _PAGE),
                               max_size=12),
           latent=st.lists(_PAGE, max_size=3), lost=st.lists(_PAGE, max_size=3),
           iteration=st.integers(0, 50))
    @settings(max_examples=120, deadline=None)
    def test_batch_is_poison_then_touch_per_injection(self, injections, latent,
                                                      lost, iteration):
        """In order, duplicates included (a page hit twice in one batch):
        the same states, pending poison, event log and page contents."""
        batch = [(t, name, page) for t, (name, page) in injections]
        looped, batched = _manager(latent, lost), _manager(latent, lost)
        for t, name, page in batch:
            looped.poison(name, page, time=t, iteration=iteration)
            assert looped.touch(name, page, time=1.5) is not None
        batched.detect_batch(batch, 1.5, iteration)
        assert batched._state == looped._state
        assert batched._pending == looped._pending
        assert batched.log.events == looped.log.events
        for name in ("x", "g"):
            assert batched.vector(name).array.tobytes() == \
                looped.vector(name).array.tobytes()

    def test_a_page_out_of_range_stops_the_batch_where_poison_would(self):
        looped, batched = _manager([], []), _manager([], [])
        batch = [(0.1, "x", 1), (0.2, "g", 9), (0.3, "x", 2)]
        with pytest.raises(IndexError):
            for t, name, page in batch:
                looped.poison(name, page, time=t)
                looped.touch(name, page, time=1.0)
        with pytest.raises(IndexError):
            batched.detect_batch(batch, 1.0)
        assert batched._state == looped._state
        assert batched.log.events == looped.log.events


class TestRecoveryScan:
    """``lost_pages``/``has_faults`` count VALID pages at C speed and walk
    only a vector that has a non-valid page: the same list, in the same
    order, as a page-by-page scan."""

    @given(vectors=st.lists(st.lists(st.sampled_from(list(PageState)),
                                     min_size=1, max_size=9),
                            min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_scan_equals_a_page_by_page_scan(self, vectors):
        mm = MemoryManager()
        names = [f"v{i}" for i in range(len(vectors))]
        for name, states in zip(names, vectors, strict=True):
            mm.register(PagedVector(np.zeros(4 * len(states)), name=name,
                                    page_size=4))
            for page, state in enumerate(states):
                if state is not PageState.VALID:
                    mm.poison(name, page, time=0.0)
                if state is PageState.LOST:
                    mm.touch(name, page, time=1.0)
        expected = [(name, page) for name in names
                    for page in range(mm.vector(name).num_pages)
                    if mm.state(name, page) is not PageState.VALID]
        assert mm.lost_pages() == expected
        for name in names:
            assert mm.lost_pages(name) == [e for e in expected
                                           if e[0] == name]
        assert mm.has_faults() is bool(expected)
