"""Direct tests for RCB's weighted-quantile threshold selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.rcb import _weighted_quantile

from . import reference_rcb


class TestWeightedQuantile:
    def test_median_of_uniform(self):
        vals = np.arange(10, dtype=float)
        w = np.ones(10)
        t = _weighted_quantile(vals, w, 0.5)
        below = (vals <= t).sum()
        assert below == 5

    def test_threshold_between_points(self):
        vals = np.array([0.0, 1.0, 2.0, 3.0])
        t = _weighted_quantile(vals, np.ones(4), 0.5)
        assert 1.0 < t < 2.0  # midpoint, not on a point

    def test_respects_weights(self):
        vals = np.array([0.0, 1.0, 2.0, 3.0])
        w = np.array([10.0, 1.0, 1.0, 1.0])
        t = _weighted_quantile(vals, w, 0.5)
        # the first point alone carries >50% of the weight
        assert t < 1.0

    def test_zero_total_weight(self):
        vals = np.array([5.0, 6.0, 7.0])
        t = _weighted_quantile(vals, np.zeros(3), 0.5)
        assert t in vals  # falls back to a middle element

    def test_unsorted_input(self):
        vals = np.array([3.0, 0.0, 2.0, 1.0])
        t = _weighted_quantile(vals, np.ones(4), 0.5)
        assert 1.0 < t < 2.0

    @given(st.integers(0, 10**6), st.floats(0.1, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_property_weight_split_near_target(self, seed, q):
        """The weight on the <= side lands within one max point-weight
        of the target fraction."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 80))
        vals = rng.random(n)
        w = rng.random(n) + 0.05
        t = _weighted_quantile(vals, w, q)
        total = w.sum()
        below = w[vals <= t].sum()
        assert below >= q * total - w.max() - 1e-9
        assert below <= q * total + w.max() + 1e-9


#: coordinates with heavy tie mass (and a signed zero)
_tied = st.one_of(
    st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 1.0]),
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
)


class TestMatchesSortAndCumsum:
    """The unit-weight path reads two order statistics instead of
    sorting and summing ``np.ones(n)``; the threshold must not move."""

    @given(
        st.lists(_tied, min_size=1, max_size=40),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_unit_weights(self, values, q):
        vals = np.array(values)
        want = reference_rcb._weighted_quantile(vals, np.ones(len(vals)), q)
        assert _weighted_quantile(vals, None, q) == want

    @given(
        st.lists(
            st.tuples(_tied, st.sampled_from([0.0, 0.5, 1.0, 3.0])),
            min_size=1,
            max_size=40,
        ),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_explicit_weights(self, pairs, q):
        vals, w = (np.array(c) for c in zip(*pairs))
        want = reference_rcb._weighted_quantile(vals, w, q)
        assert _weighted_quantile(vals, w, q) == want

    @pytest.mark.parametrize("frac", [0.5, 1 / 3, 2 / 3, 13 / 25])
    def test_fractions_rcb_uses(self, frac):
        rng = np.random.default_rng(0)
        for n in range(1, 41):
            vals = rng.integers(0, 4, n).astype(float)
            want = reference_rcb._weighted_quantile(vals, np.ones(n), frac)
            assert _weighted_quantile(vals, None, frac) == want
