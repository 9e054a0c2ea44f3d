"""Tests for repro.utils.arrays (including hypothesis properties)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.arrays import (
    counts_per_label,
    relabel_contiguous,
    sum_by_label,
)


class TestCountsPerLabel:
    def test_basic(self):
        out = counts_per_label(np.array([0, 1, 1, 3]), 5)
        assert out.tolist() == [1, 2, 0, 1, 0]

    def test_empty(self):
        assert counts_per_label(np.array([], dtype=int), 3).tolist() == [
            0, 0, 0,
        ]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="labels must lie"):
            counts_per_label(np.array([0, 5]), 3)
        with pytest.raises(ValueError, match="labels must lie"):
            counts_per_label(np.array([-1]), 3)


class TestSumByLabel:
    """Exact int64 sums: equal to ``np.add.at`` with ``==`` always."""

    @staticmethod
    def add_at(labels, values, n_labels):
        out = np.zeros((n_labels,) + values.shape[1:], dtype=np.int64)
        np.add.at(out, labels, values)
        return out

    @given(st.integers(0, 2**32 - 1), st.integers(0, 60), st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_matches_add_at(self, seed, n, ncols):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 7, size=n)
        shape = (n, ncols) if ncols else (n,)
        values = rng.integers(-50, 50, size=shape)
        got = sum_by_label(labels, values, 7)
        exp = self.add_at(labels, values, 7)
        assert got.dtype == np.int64 and got.shape == exp.shape
        assert got.tolist() == exp.tolist()

    def test_sums_beyond_float64_integers_stay_exact(self):
        # 2**53 + 1 is not a float64: the bound check must route these
        # through the integer path
        values = np.array([2**53, 1, 2**60, 3, -(2**60)], dtype=np.int64)
        labels = np.array([0, 0, 1, 1, 1])
        assert sum_by_label(labels, values, 3).tolist() == [2**53 + 1, 3, 0]
        wide = np.column_stack((values, np.ones(5, dtype=np.int64)))
        assert sum_by_label(labels, wide, 2).tolist() == [
            [2**53 + 1, 2], [3, 3],
        ]

    def test_empty(self):
        none = np.zeros(0, dtype=np.int64)
        assert sum_by_label(none, none, 2).tolist() == [0, 0]
        assert sum_by_label(none, np.zeros((0, 2), dtype=np.int64), 2).tolist() == [
            [0, 0], [0, 0],
        ]


class TestRelabelContiguous:
    def test_roundtrip(self):
        labels = np.array([10, 3, 10, 7])
        new, uniq = relabel_contiguous(labels)
        assert np.array_equal(uniq[new], labels)

    def test_dense_range(self):
        new, uniq = relabel_contiguous(np.array([5, 5, 9]))
        assert set(new.tolist()) == {0, 1}
        assert uniq.tolist() == [5, 9]

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_property_inverse(self, labels):
        labels = np.asarray(labels)
        new, uniq = relabel_contiguous(labels)
        assert np.array_equal(uniq[new], labels)
        assert new.min() == 0
        assert new.max() == len(uniq) - 1
