"""Tests for balance bookkeeping, including BalanceTracker equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition.balance import (
    BalanceTracker,
    max_allowed,
    target_weights,
    violation,
    violation_delta,
)


class TestTargets:
    def test_even_split(self):
        t = target_weights(np.array([100, 10]), np.array([0.5, 0.5]))
        assert t.tolist() == [[50, 5], [50, 5]]

    def test_proportional_split(self):
        t = target_weights(np.array([100]), np.array([0.6, 0.4]))
        assert t[:, 0].tolist() == [60, 40]

    def test_fracs_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            target_weights(np.array([10]), np.array([0.5, 0.6]))


class TestViolation:
    def test_feasible_is_zero(self):
        targets = target_weights(np.array([100]), np.array([0.5, 0.5]))
        assert violation(np.array([[50], [50]]), targets, 1.05) == 0.0

    def test_tolerance_respected(self):
        targets = target_weights(np.array([100]), np.array([0.5, 0.5]))
        # 52 < 50*1.05 = 52.5 -> still fine
        assert violation(np.array([[52], [48]]), targets, 1.05) == 0.0
        assert violation(np.array([[54], [46]]), targets, 1.05) > 0.0

    def test_zero_total_constraint_ignored(self):
        targets = np.array([[50.0, 0.0], [50.0, 0.0]])
        v = violation(np.array([[50, 3], [50, 0]]), targets, 1.05)
        assert v == 0.0


class TestMoveChecks:
    def test_move_keeps_feasible(self):
        targets = target_weights(np.array([100]), np.array([0.5, 0.5]))
        # only the destination gains weight, so only it is checked
        tracker = BalanceTracker(np.array([[50], [50]]), targets, 1.05)
        assert tracker.fits(1, [2])
        assert not tracker.fits(1, [5])

    def test_violation_delta_sign(self):
        targets = target_weights(np.array([100]), np.array([0.5, 0.5]))
        pw = np.array([[70], [30]])
        # moving weight off the overweight side improves
        assert violation_delta(pw, np.array([10]), 0, 1, targets, 1.05) < 0
        # moving onto it worsens
        assert violation_delta(pw, np.array([10]), 1, 0, targets, 1.05) > 0


class TestBalanceTracker:
    def _random_case(self, seed, k=4, ncon=2):
        rng = np.random.default_rng(seed)
        pwgts = rng.integers(0, 50, size=(k, ncon)).astype(float)
        totals = pwgts.sum(axis=0)
        totals[totals == 0] = 1
        targets = target_weights(totals, np.full(k, 1.0 / k))
        return pwgts, targets

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_property_total_matches_violation(self, seed):
        pwgts, targets = self._random_case(seed)
        tracker = BalanceTracker(pwgts, targets, 1.05)
        assert tracker.total == pytest.approx(
            violation(pwgts, targets, 1.05), abs=1e-9
        )

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_property_delta_matches_violation_delta(self, seed):
        pwgts, targets = self._random_case(seed)
        tracker = BalanceTracker(pwgts, targets, 1.05)
        rng = np.random.default_rng(seed + 1)
        src, dst = rng.choice(4, size=2, replace=False)
        vwgt = rng.integers(0, 10, size=2).astype(float)
        expected = violation_delta(pwgts, vwgt, src, dst, targets, 1.05)
        assert tracker.delta_move(src, dst, vwgt.tolist()) == pytest.approx(
            expected, abs=1e-9
        )

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_property_apply_move_keeps_cache_consistent(self, seed):
        pwgts, targets = self._random_case(seed)
        tracker = BalanceTracker(pwgts, targets, 1.05)
        rng = np.random.default_rng(seed + 2)
        for _ in range(5):
            src, dst = rng.choice(4, size=2, replace=False)
            vwgt = rng.integers(0, 5, size=2).astype(float).tolist()
            tracker.apply_move(src, dst, vwgt)
        fresh = BalanceTracker(
            tracker.pwgts_array(), targets, 1.05
        )
        assert tracker.total == pytest.approx(fresh.total, abs=1e-9)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_property_resync_after_in_place_writes(self, seed):
        # weights written straight into ``pw`` (no apply_move), then
        # one resync: the state is exactly a fresh tracker's
        pwgts, targets = self._random_case(seed)
        tracker = BalanceTracker(pwgts, targets, 1.05)
        rng = np.random.default_rng(seed + 3)
        for _ in range(5):
            src, dst = rng.choice(4, size=2, replace=False)
            for j, w in enumerate(rng.integers(0, 5, size=2).tolist()):
                tracker.pw[src][j] -= w
                tracker.pw[dst][j] += w
        tracker.resync()
        fresh = BalanceTracker(tracker.pwgts_array(), targets, 1.05)
        assert [tracker.violation_of(p) for p in range(4)] == [
            fresh.violation_of(p) for p in range(4)
        ]
        assert tracker.worst() == fresh.worst()
        assert tracker.total == fresh.total

    def test_binding_skips_zero_total_constraints(self):
        targets = np.array([[10.0, 0.0, 3.0], [10.0, 0.0, 3.0]])
        tracker = BalanceTracker(np.zeros((2, 3)), targets, 1.05)
        assert tracker.binding == [0, 2]
        assert tracker.fits(0, [0.0, 99.0, 0.0])

    def test_worst_identifies_binding_constraint(self):
        targets = np.array([[10.0, 10.0], [10.0, 10.0]])
        pwgts = np.array([[10.0, 18.0], [10.0, 2.0]])
        tracker = BalanceTracker(pwgts, targets, 1.05)
        assert tracker.worst() == (0, 1)

    def test_worst_none_when_feasible(self):
        targets = np.array([[10.0], [10.0]])
        tracker = BalanceTracker(np.array([[10.0], [10.0]]), targets, 1.05)
        assert tracker.worst() is None

    def test_fits(self):
        targets = np.array([[10.0], [10.0]])
        tracker = BalanceTracker(np.array([[10.0], [10.0]]), targets, 1.05)
        assert tracker.fits(0, [0.4])
        assert not tracker.fits(0, [2.0])


class TestBalanceTrackerArrayQueries:
    """The ``*_many`` queries must equal the scalar ones with ``==``:
    the rebalancer breaks ties on the exact float."""

    def _case(self, seed, k, ncon, zero_column):
        rng = np.random.default_rng(seed)
        pwgts = rng.integers(0, 60, size=(k, ncon))
        vwgts = rng.integers(0, 9, size=(17, ncon))
        if seed % 2:
            # fractional weights: every sum rounds, so a different
            # operation order shows up in the last bit
            pwgts = pwgts + rng.random((k, ncon))
            vwgts = vwgts + rng.random((17, ncon))
        if zero_column:
            pwgts[:, -1] = 0
            vwgts[:, -1] = 0
        # uneven fractions: bounds that are not exact in binary either
        fracs = rng.random(k) + 0.2
        fracs /= fracs.sum()
        totals = pwgts.sum(axis=0)
        tracker = BalanceTracker(
            pwgts, np.outer(fracs, totals), 1.0 + 0.3 * rng.random()
        )
        return rng, tracker, vwgts

    def _assert_queries_equal(self, tracker, vwgts):
        rows = vwgts.tolist()
        fits = tracker.fits_many(vwgts)
        assert fits.shape == (len(rows), tracker.k) and fits.dtype == bool
        for d in range(tracker.k):
            assert fits[:, d].tolist() == [tracker.fits(d, w) for w in rows]
        for j in range(tracker.ncon):
            assert tracker.has_slack(j).tolist() == [
                tracker.pw[d][j] < tracker.allowed[d][j]
                for d in range(tracker.k)
            ]
        for src in range(tracker.k):
            delta = tracker.delta_move_many(src, vwgts)
            assert delta.shape == (len(rows), tracker.k)
            for d in range(tracker.k):
                assert delta[:, d].tolist() == [
                    tracker.delta_move(src, d, w) for w in rows
                ]

    @pytest.mark.parametrize(
        "ncon, zero_column",
        [(1, False), (2, False), (2, True), (3, False), (3, True)],
    )
    @pytest.mark.parametrize("k", [2, 7, 32])
    def test_equal_to_scalar_queries(self, k, ncon, zero_column):
        for seed in range(4):
            _, tracker, vwgts = self._case(seed, k, ncon, zero_column)
            self._assert_queries_equal(tracker, vwgts)

    def test_equal_after_moves(self):
        rng, tracker, vwgts = self._case(9, 6, 2, False)
        for row in vwgts.tolist():
            src, dst = rng.choice(6, size=2, replace=False)
            tracker.apply_move(int(src), int(dst), row)
            self._assert_queries_equal(tracker, vwgts)
