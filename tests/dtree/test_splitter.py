"""Tests for the Eq. 1 splitting-index scan, including brute-force
property verification.

Single nodes are checked on the path the program runs: the root cut of
a depth-1 tree (:func:`root_cut`) — a pure tree for Eq. 1, a bounded
tree over one class for the §4.2 median cut."""

from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtree.induction import induce_bounded_tree, induce_pure_tree
from repro.dtree.splitter import index_curves, narrow_labels
from tests.dtree.reference_split import _occurrence_ranks, _sumsq_prefix


class Cut(NamedTuple):
    """A root cut: ``points[:, dim] <= threshold`` (``threshold`` as
    its exact hex string) sends ``n_left`` points left."""

    dim: int
    threshold: str
    n_left: int


def cut_of(split, points: np.ndarray) -> Optional[Cut]:
    """The cut an oracle's split result (``None``, or anything with
    ``dim`` and ``threshold``) makes of ``points``; ``None`` also when it
    sends every point to one side (a tree leaves such a node unsplit)."""
    if split is None:
        return None
    n_left = int(np.count_nonzero(points[:, split.dim] <= split.threshold))
    if n_left in (0, len(points)):
        return None
    return Cut(int(split.dim), float(split.threshold).hex(), n_left)


def root_cut(result) -> Optional[Cut]:
    """The root cut of an induction result, ``None`` for a leaf root."""
    tree, _ = result
    if tree.left[0] < 0:
        return None
    return Cut(
        int(tree.dim[0]),
        float(tree.threshold[0]).hex(),
        int(tree.n_points[tree.left[0]]),
    )


def eq1_cut(points, labels, margin_weight=0.0):
    """The Eq. 1 cut of one node: the root of a depth-1 pure tree."""
    labels = np.asarray(labels)
    return root_cut(induce_pure_tree(
        points, labels, int(labels.max()) + 1,
        margin_weight=margin_weight, max_depth=1,
    ))


def median_cut(points):
    """The §4.2 cut of one pure node: the root of a depth-1 bounded
    tree over a single class."""
    return root_cut(induce_bounded_tree(
        points, np.zeros(len(points), dtype=np.int64), 1,
        max_p=1, max_i=1, max_depth=1,
    ))


def eq1_brute_force(labels_left, labels_right, k):
    """Direct evaluation of the paper's Eq. 1."""
    c1 = np.bincount(labels_left, minlength=k)
    c2 = np.bincount(labels_right, minlength=k)
    return np.sqrt((c1.astype(float) ** 2).sum()) + np.sqrt(
        (c2.astype(float) ** 2).sum()
    )


class TestInternals:
    """The identity the split search rests on, checked on the oracle's
    two helpers (``test_split_differential.py`` ties the library to the
    oracle; ``TestSplitIndexCurve`` ties it to Eq. 1 directly)."""

    def test_occurrence_ranks(self):
        labels = np.array([3, 1, 3, 3, 1])
        assert _occurrence_ranks(labels).tolist() == [1, 1, 2, 3, 2]

    def test_sumsq_prefix_matches_definition(self):
        labels = np.array([0, 1, 0, 0, 2, 1])
        out = _sumsq_prefix(labels)
        for i in range(len(labels) + 1):
            counts = np.bincount(labels[:i], minlength=3)
            assert out[i] == (counts**2).sum()

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_property_sumsq_prefix(self, labels):
        labels = np.asarray(labels, dtype=np.int64)
        out = _sumsq_prefix(labels)
        for i in (0, len(labels) // 2, len(labels)):
            counts = np.bincount(labels[:i], minlength=6)
            assert out[i] == (counts**2).sum()


class TestSplitIndexCurve:
    @given(st.integers(0, 10**6), st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_property_matches_brute_force_eq1(self, seed, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        coords = rng.random(n)
        labels = rng.integers(0, k, n)
        order = coords.argsort(kind="stable")
        # one segment, one dimension
        idx_vals = index_curves(
            narrow_labels(labels, k)[order][None, :],
            np.zeros(n, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.bincount(labels, minlength=k)[None, :],
        )[0]
        lab_sorted = labels[order]
        for i in range(n - 1):
            expect = eq1_brute_force(
                lab_sorted[: i + 1], lab_sorted[i + 1 :], k
            )
            assert idx_vals[i] == pytest.approx(expect)

    def test_valid_marks_distinct_coords_only(self):
        # the cut between the two zeros would tie the best valid cut
        # and win the tie on its lower position; it separates no two
        # coordinates, so the cut at 1.5 is taken
        pts = np.array([[0.0], [0.0], [1.0], [2.0]])
        labels = np.array([0, 1, 0, 1])
        assert eq1_cut(pts, labels) == Cut(0, (1.5).hex(), 3)


class TestBestSplit:
    def test_perfect_separation_found(self):
        pts = np.array([[0.0, 5.0], [1.0, 3.0], [10.0, 4.0], [11.0, 6.0]])
        labels = np.array([0, 0, 1, 1])
        s = eq1_cut(pts, labels)
        assert s.dim == 0
        assert 1.0 < float.fromhex(s.threshold) < 10.0
        assert s.n_left == 2

    def test_picks_discriminating_dimension(self):
        rng = np.random.default_rng(0)
        x = rng.random(40)
        y = np.concatenate([rng.random(20), rng.random(20) + 5.0])
        pts = np.column_stack([x, y])
        labels = np.repeat([0, 1], 20)
        s = eq1_cut(pts, labels)
        assert s.dim == 1

    def test_maximises_eq1(self):
        """The chosen cut's Eq. 1 equals the brute-force maximum."""
        rng = np.random.default_rng(1)
        pts = rng.random((30, 2))
        labels = rng.integers(0, 3, 30)
        s = eq1_cut(pts, labels)
        left = pts[:, s.dim] <= float.fromhex(s.threshold)
        best_val = -np.inf
        for dim in range(2):
            order = np.argsort(pts[:, dim])
            c = pts[order, dim]
            lab = labels[order]
            for i in range(29):
                if c[i] < c[i + 1]:
                    best_val = max(
                        best_val,
                        eq1_brute_force(lab[: i + 1], lab[i + 1 :], 3),
                    )
        got = eq1_brute_force(labels[left], labels[~left], 3)
        assert got == pytest.approx(best_val)

    def test_unsplittable_returns_none(self):
        pts = np.zeros((5, 2))
        labels = np.array([0, 1, 0, 1, 0])
        assert eq1_cut(pts, labels) is None

    def test_single_point_returns_none(self):
        assert eq1_cut(np.array([[1.0, 2.0]]), np.array([0])) is None

    def test_threshold_strictly_separates(self):
        rng = np.random.default_rng(2)
        pts = rng.random((25, 3))
        labels = rng.integers(0, 2, 25)
        s = eq1_cut(pts, labels)
        go_left = pts[:, s.dim] <= float.fromhex(s.threshold)
        assert go_left.sum() == s.n_left
        assert 0 < s.n_left < 25

    def test_margin_mode_prefers_wide_gap(self):
        """With two equally pure cuts, margin weighting picks the one in
        the wider empty region."""
        #  class 0 at x in {0, 1}, class 1 at x in {1.2, 9}: cuts at
        #  ~1.1 and anywhere in (1.2, 9) are NOT equally pure; build a
        #  symmetric case instead: 0,0,1,1 at x = 0, 1, 1.1, 9
        pts = np.array([[0.0], [1.0], [1.1], [9.0]])
        labels = np.array([0, 0, 1, 1])
        plain = eq1_cut(pts, labels)  # the pure, balanced cut at 1.05
        small = eq1_cut(pts, labels, margin_weight=0.01)
        assert plain.n_left == 2
        assert small.n_left == 2  # tiny margin weight: purity still wins
        # a large margin weight lets the wide gap dominate purity
        big = eq1_cut(pts, labels, margin_weight=5.0)
        assert float.fromhex(big.threshold) == pytest.approx(5.05)
        # among equally impure cuts, margin picks the one in the big gap
        pts2 = np.array([[0.0], [2.0], [4.0], [20.0]])
        labels2 = np.array([0, 1, 0, 1])
        s2 = eq1_cut(pts2, labels2, margin_weight=5.0)
        # through the big gap
        assert float.fromhex(s2.threshold) == pytest.approx(12.0)


class TestMedianSplit:
    def test_balances_counts(self):
        pts = np.random.default_rng(0).random((21, 2))
        s = median_cut(pts)
        assert abs(2 * s.n_left - 21) <= 1

    def test_longest_extent_chosen(self):
        pts = np.column_stack(
            [np.linspace(0, 10, 12), np.linspace(0, 1, 12)]
        )
        assert median_cut(pts).dim == 0

    def test_degenerate_dimension_skipped(self):
        pts = np.column_stack(
            [np.zeros(10), np.linspace(0, 1, 10)]
        )
        assert median_cut(pts).dim == 1

    def test_all_coincident_returns_none(self):
        assert median_cut(np.zeros((6, 2))) is None
