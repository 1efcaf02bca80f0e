"""Tests for the page-blocked vector abstraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PAGE_DOUBLES
from repro.memory.pages import PagedVector, page_count, page_slice


class TestPageArithmetic:
    def test_page_count_exact_multiple(self):
        assert page_count(1024, 512) == 2

    def test_page_count_partial_last_page(self):
        assert page_count(1025, 512) == 3

    def test_page_count_zero_length(self):
        assert page_count(0, 512) == 0

    def test_page_count_default_page_size(self):
        assert page_count(PAGE_DOUBLES) == 1

    def test_page_count_rejects_negative_length(self):
        with pytest.raises(ValueError):
            page_count(-1, 512)

    def test_page_count_rejects_bad_page_size(self):
        with pytest.raises(ValueError):
            page_count(10, 0)

    def test_page_slice_bounds(self):
        sl = page_slice(1, 1000, 512)
        assert sl.start == 512 and sl.stop == 1000

    def test_page_slice_out_of_range(self):
        with pytest.raises(IndexError):
            page_slice(3, 1000, 512)

    @given(n=st.integers(1, 5000), page_size=st.integers(1, 700))
    @settings(max_examples=60, deadline=None)
    def test_page_slices_partition_the_index_range(self, n, page_size):
        covered = []
        for p in range(page_count(n, page_size)):
            sl = page_slice(p, n, page_size)
            covered.extend(range(sl.start, sl.stop))
        assert covered == list(range(n))


class TestPagedVector:
    def test_zero_initialised_from_length(self):
        v = PagedVector(100, name="v", page_size=32)
        assert v.size == 100
        assert np.all(v.array == 0.0)

    def test_copies_input_data(self):
        data = np.arange(10, dtype=float)
        v = PagedVector(data, name="v", page_size=4)
        data[0] = 99.0
        assert v.array[0] == 0.0

    def test_num_pages(self):
        v = PagedVector(100, page_size=32)
        assert v.num_pages == 4

    def test_page_view_is_writable(self):
        v = PagedVector(64, page_size=16)
        v.page(2)[:] = 5.0
        assert np.all(v.array[32:48] == 5.0)

    def test_set_page_and_zero_page(self):
        v = PagedVector(np.arange(40, dtype=float), page_size=16)
        v.set_page(1, np.full(16, -1.0))
        assert np.all(v.page(1) == -1.0)
        v.zero_page(1)
        assert np.all(v.page(1) == 0.0)

    def test_set_page_wrong_length_raises(self):
        v = PagedVector(40, page_size=16)
        with pytest.raises(ValueError):
            v.set_page(2, np.zeros(16))   # last page holds only 8 values

    def test_fill_from_length_mismatch(self):
        v = PagedVector(10)
        with pytest.raises(ValueError):
            v.fill_from(np.zeros(11))

    def test_fill_from_other_vector(self):
        v = PagedVector(np.arange(10, dtype=float))
        w = PagedVector(10)
        w.fill_from(v)
        assert np.array_equal(w.array, v.array)

    def test_invalid_page_size(self):
        with pytest.raises(ValueError):
            PagedVector(10, page_size=0)

    def test_len_is_size(self):
        v = PagedVector(np.ones((3, 4)), page_size=5)
        assert len(v) == v.size == 12
        assert v.num_pages == 3

    def test_short_last_page_slice(self):
        v = PagedVector(40, page_size=16)
        assert v.page_slice(2) == slice(32, 40)
        assert v.page(2).size == 8

    def test_page_out_of_range(self):
        v = PagedVector(40, page_size=16)
        with pytest.raises(IndexError):
            v.page(3)
        with pytest.raises(IndexError):
            v.page(-1)

    def test_empty_vector_has_no_pages(self):
        v = PagedVector(0, page_size=16)
        assert v.num_pages == 0

    @given(n=st.integers(1, 2000), page_size=st.integers(1, 600))
    @settings(max_examples=40, deadline=None)
    def test_page_views_tile_the_vector(self, n, page_size):
        v = PagedVector(np.arange(n, dtype=float), page_size=page_size)
        pages = [v.page(p) for p in range(v.num_pages)]
        assert np.array_equal(np.concatenate(pages), v.array)
        assert v.num_pages == page_count(n, page_size)
