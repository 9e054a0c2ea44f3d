"""Tests for tree induction: purity, bounded termination, and the
paper's Figure 1 / Figure 2 behaviours."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtree.descriptors import SubdomainDescriptors
from repro.dtree.induction import (
    SubtreeMemo,
    induce_bounded_tree,
    induce_pure_tree,
    suggested_bounds,
)
from repro.dtree.query import predict_partition
from repro.geometry.bbox import bbox_of_points
from tests.dtree import reference_induction as ref


def three_clusters(n_per=15, seed=0):
    """Figure-1-like: 3 clusters of contact points, 45 total."""
    rng = np.random.default_rng(seed)
    pts = np.concatenate(
        [
            rng.random((n_per, 2)),
            rng.random((n_per, 2)) + [2.0, 0.0],
            rng.random((n_per, 2)) + [1.0, 2.0],
        ]
    )
    labels = np.repeat(np.arange(3), n_per)
    return pts, labels


def figure1_points(seed=0):
    """The paper's Figure 1a layout: 45 points in three clustered
    partitions, top-left, top-right and bottom."""
    rng = np.random.default_rng(seed)
    pts = np.concatenate(
        [
            rng.random((15, 2)) * [2.0, 2.5] + [0.2, 2.2],
            rng.random((15, 2)) * [2.5, 2.0] + [2.8, 2.8],
            rng.random((15, 2)) * [3.5, 1.8] + [0.8, 0.2],
        ]
    )
    return pts, np.repeat(np.arange(3), 15)


def boundary_points(angle_deg, n=200, seed=0):
    """Figure 2: points uniform in the unit square, split by a line
    through the centre at ``angle_deg`` to the x-axis."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    theta = np.deg2rad(angle_deg)
    normal = np.array([-np.sin(theta), np.cos(theta)])
    return pts, ((pts - 0.5) @ normal > 0).astype(np.int64)


class TestPureTree:
    def test_all_leaves_pure(self):
        pts, labels = three_clusters()
        tree, leaf_of = induce_pure_tree(pts, labels, 3)
        for nd in tree.nodes:
            if nd.is_leaf:
                assert nd.is_pure

    def test_classifies_training_points_exactly(self):
        pts, labels = three_clusters()
        tree, _ = induce_pure_tree(pts, labels, 3)
        assert np.array_equal(predict_partition(tree, pts), labels)

    def test_leaf_of_point_consistent(self):
        pts, labels = three_clusters()
        tree, leaf_of = induce_pure_tree(pts, labels, 3)
        for i, leaf in enumerate(leaf_of):
            assert tree.nodes[leaf].is_leaf
            assert tree.nodes[leaf].label == labels[i]

    def test_figure1_three_clusters_small_tree(self):
        """Well-separated clusters need only a handful of rectangles
        (Figure 1's own layout: 3 leaves, 5 nodes; the paper draws ~10
        rectangles for its 45 points), and the descriptors of the
        subdomains never overlap."""
        for pts, labels in (three_clusters(), figure1_points()):
            tree, _ = induce_pure_tree(pts, labels, 3)
            assert tree.n_leaves <= 6
            assert tree.n_nodes <= 11
            desc = SubdomainDescriptors.from_tree(
                tree, bbox_of_points(pts))
            assert desc.total_overlap_volume() == 0.0

    def test_figure2_diagonal_blowup(self):
        """A diagonal boundary forces many axis-parallel cuts (Fig. 2):
        the tree is dramatically larger than for an axis-aligned
        boundary of the same point count."""
        n = 28
        t = np.linspace(0.0, 1.0, n)
        rng = np.random.default_rng(0)
        diag_pts = np.column_stack([t, t + 0.02 * rng.standard_normal(n)])
        diag_labels = (diag_pts[:, 1] > diag_pts[:, 0]).astype(int)
        diag_tree, _ = induce_pure_tree(diag_pts, diag_labels, 2)

        axis_pts = rng.random((n, 2))
        axis_labels = (axis_pts[:, 0] > 0.5).astype(int)
        axis_tree, _ = induce_pure_tree(axis_pts, axis_labels, 2)

        assert axis_tree.n_nodes == 3
        assert diag_tree.n_nodes >= 4 * axis_tree.n_nodes

    def test_figure2_tree_size_vs_angle(self):
        """EXPERIMENTS.md's Figure 2 table: 200 points, the boundary
        turned 0/15/30/45° away from the x-axis. The 45° tree is more
        than 8× the axis-parallel one."""
        sizes = [
            induce_pure_tree(*boundary_points(angle), 2)[0].n_nodes
            for angle in (0, 15, 30, 45)
        ]
        assert sizes == [3, 15, 23, 25]
        assert sizes[-1] >= 8 * sizes[0]

    def test_single_class_is_single_leaf(self):
        pts = np.random.default_rng(0).random((20, 2))
        tree, _ = induce_pure_tree(pts, np.zeros(20, dtype=int), 1)
        assert tree.n_nodes == 1

    def test_coincident_mixed_points_terminate_impure(self):
        pts = np.zeros((4, 2))
        labels = np.array([0, 1, 0, 1])
        tree, _ = induce_pure_tree(pts, labels, 2)
        assert tree.n_nodes == 1
        assert not tree.nodes[0].is_pure

    def test_adjacent_float_coordinates(self):
        """Coordinates one ULP apart: the midpoint rounds onto one of
        them, which must terminate the node instead of recursing on an
        empty side (regression)."""
        a = 1.0
        b = np.nextafter(a, 2.0)
        pts = np.array([[a, 0.0], [b, 0.0], [a, 0.0], [b, 0.0]])
        labels = np.array([0, 1, 0, 1])
        tree, leaf_of = induce_pure_tree(pts, labels, 2)
        tree.validate()
        assert (leaf_of >= 0).all()

    def test_max_depth_guard(self):
        rng = np.random.default_rng(1)
        pts = rng.random((200, 2))
        labels = rng.integers(0, 2, 200)  # salt-and-pepper: deep tree
        tree, _ = induce_pure_tree(pts, labels, 2, max_depth=3)
        assert tree.depth() <= 3

    def test_input_validation(self):
        pts = np.random.default_rng(0).random((5, 2))
        with pytest.raises(ValueError, match="lengths differ"):
            induce_pure_tree(pts, np.zeros(4, dtype=int), 1)
        with pytest.raises(ValueError, match="zero points"):
            induce_pure_tree(np.empty((0, 2)), np.empty(0, dtype=int), 1)
        with pytest.raises(ValueError, match="labels must lie"):
            induce_pure_tree(pts, np.full(5, 7), 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        # a NaN used to come back filed under a leaf marked pure
        rng = np.random.default_rng(0)
        pts = rng.random((200, 2))
        labels = rng.integers(0, 4, 200)
        pts[17, 1] = bad
        memo = SubtreeMemo()
        with pytest.raises(ValueError, match="^points must be finite"):
            induce_pure_tree(pts, labels, 4, memo=memo)
        assert memo.rule is None and memo.n_grafted == 0

    @pytest.mark.parametrize("bounded", [False, True])
    def test_margin_term_on_spans_that_overflow(self, bounded):
        # finite coordinates whose span exceeds the float64 range: the
        # margin term's extent used to be inf, its score NaN, and a
        # leaf of the tree impure
        pts = np.array([[-1e308, 0, 0], [1e308, 0, 0],
                        [-5e307, 1, 0], [5e307, 1, 1]])
        labels = np.array([0, 1, 0, 1])

        def induce(points):
            if bounded:
                return induce_bounded_tree(points, labels, 2, max_p=1,
                                           max_i=1, margin_weight=1.0)
            return induce_pure_tree(points, labels, 2, margin_weight=1.0)

        with np.errstate(all="raise"):
            tree, leaf_of = induce(pts)
        tree.validate()
        assert all(tree.nodes[leaf].is_pure for leaf in leaf_of)
        assert [tree.nodes[leaf].label for leaf in leaf_of] == [0, 1, 0, 1]
        # the gap / extent ratios do not depend on a power-of-two scale,
        # so the same points far inside the range give the same tree
        small, _ = induce(pts * 2.0 ** -1000)
        assert [(n.dim, n.n_points, n.label) for n in tree.nodes] == [
            (n.dim, n.n_points, n.label) for n in small.nodes
        ]
        assert [n.threshold for n in tree.nodes] == [
            n.threshold * 2.0 ** 1000 for n in small.nodes
        ]

    @pytest.mark.parametrize("bounded", [False, True])
    def test_margin_term_on_subnormal_spans_equals_the_oracle(self, bounded):
        # halving 5e-324 gives 0.0: the margin term keeps the unhalved
        # arithmetic wherever it does not overflow, so subnormal and
        # sign-mirrored coordinates give the recursive engine's tree
        pts = np.array([[-0.0, 0.0], [-5e-324, 0.0], [-5e-324, 0.0],
                        [-0.0, 2.0], [-5e-324, 1.0], [-1.5e-323, 1.0]])
        labels = np.array([0, 1, 1, 0, 0, 1])
        pts = np.concatenate((pts, -pts))
        labels = np.concatenate((labels, labels))
        if bounded:
            kwargs = dict(max_p=1, max_i=1, margin_weight=0.5)
            got = induce_bounded_tree(pts, labels, 2, **kwargs)
            want = ref.induce_bounded_tree(pts, labels, 2, **kwargs)
        else:
            got = induce_pure_tree(pts, labels, 2, margin_weight=0.5)
            want = ref.induce_pure_tree(pts, labels, 2, margin_weight=0.5)
        assert got[1].tolist() == want[1].tolist()
        assert [
            (n.n_points, n.label, n.dim, float(n.threshold).hex())
            for n in got[0].nodes
        ] == [
            (n.n_points, n.label, n.dim, float(n.threshold).hex())
            for n in want[0].nodes
        ]

    @given(st.integers(0, 10**6), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_property_pure_tree_classifies_exactly(self, seed, k):
        """For any point set with distinct coordinates, the pure tree
        reproduces the labelling exactly."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        pts = rng.random((n, 2))  # distinct w.p. 1
        labels = rng.integers(0, k, n)
        tree, _ = induce_pure_tree(pts, labels, k)
        tree.validate()
        assert np.array_equal(predict_partition(tree, pts), labels)


class TestSubtreeMemo:
    """A memo changes which nodes are split, never the tree."""

    @staticmethod
    def same(got, expected):
        (tree, leaf_of), (ref_tree, ref_leaf_of) = got, expected
        assert tree.nodes == ref_tree.nodes  # dataclass ==: every field
        assert tree.k == ref_tree.k
        assert np.array_equal(leaf_of, ref_leaf_of)
        tree.validate()

    @staticmethod
    def drifting(seed, n=400, k=5, steps=8):
        """A point cloud in which one corner moves and a few labels
        flip every step; most subtrees see unchanged inputs."""
        rng = np.random.default_rng(seed)
        pts = rng.random((n, 3))
        labels = (pts[:, 0] * k).astype(np.int64)
        for _ in range(steps):
            yield pts.copy(), labels.copy()
            corner = (pts[:, 0] < 0.3) & (pts[:, 1] < 0.5)
            pts[corner] += 0.01 * rng.standard_normal((corner.sum(), 3))
            labels[rng.integers(0, n, size=3)] = rng.integers(0, k)

    @pytest.mark.parametrize("seed", range(4))
    def test_sequence_equals_from_scratch(self, seed):
        memo = SubtreeMemo()
        grafted = 0
        for pts, labels in self.drifting(seed):
            got = induce_pure_tree(pts, labels, 5, memo=memo)
            self.same(got, induce_pure_tree(pts, labels, 5))
            assert 0 <= memo.n_grafted <= got[0].n_nodes
            grafted += memo.n_grafted
        assert grafted > 0

    def test_same_input_grafts_the_whole_tree(self):
        pts, labels = three_clusters()
        memo = SubtreeMemo()
        first = induce_pure_tree(pts, labels, 3, memo=memo)
        assert memo.n_grafted == 0
        again = induce_pure_tree(pts, labels, 3, memo=memo)
        assert memo.n_grafted == first[0].n_nodes
        self.same(again, first)
        assert again[0].nodes[0] is not first[0].nodes[0]

    def test_editing_a_returned_tree_does_not_reach_the_memo(self):
        # a caller may rewrite ``tree.nodes`` in place
        pts, labels = three_clusters()
        memo = SubtreeMemo()
        tree, leaf_of = induce_pure_tree(pts, labels, 3, memo=memo)
        for nd in tree.nodes:
            nd.left = nd.right = nd.label = 0
            nd.threshold = -1.0
        del tree.nodes[1:]
        leaf_of[:] = -7
        self.same(
            induce_pure_tree(pts, labels, 3, memo=memo),
            induce_pure_tree(pts, labels, 3),
        )

    def test_depth_cutoff_stays_exact(self):
        # the root's left child in the second call is the whole first
        # cloud, one level deeper: grafting the remembered root there
        # would run one level past max_depth
        rng = np.random.default_rng(2)
        pts = rng.random((64, 2))
        labels = rng.integers(0, 4, size=64)
        both = np.concatenate((pts, pts + [5.0, 0.0]))
        both_labels = np.concatenate((labels, labels + 4))
        for max_depth in (1, 2, 3, 5):
            memo = SubtreeMemo()
            induce_pure_tree(pts, labels, 8, max_depth=max_depth, memo=memo)
            got = induce_pure_tree(
                both, both_labels, 8, max_depth=max_depth, memo=memo
            )
            root = got[0].nodes[0]
            assert (root.dim, got[0].nodes[root.left].n_points) == (0, 64)
            self.same(
                got,
                induce_pure_tree(both, both_labels, 8, max_depth=max_depth),
            )

    def test_another_rule_starts_empty(self):
        pts, labels = three_clusters(seed=4)
        memo = SubtreeMemo()
        induce_pure_tree(pts, labels, 3, memo=memo)
        for kwargs in ({"max_depth": 2}, {"margin_weight": 0.5}):
            got = induce_pure_tree(pts, labels, 3, memo=memo, **kwargs)
            assert memo.n_grafted == 0
            self.same(got, induce_pure_tree(pts, labels, 3, **kwargs))

    def test_other_dimension_same_bytes_is_a_miss(self):
        # 6 points in 2-D and 4 in 3-D are the same 96 bytes; the
        # label bytes tell them apart
        flat = np.arange(12, dtype=float)
        memo = SubtreeMemo()
        induce_pure_tree(flat.reshape(6, 2), np.zeros(6, int), 2, memo=memo)
        got = induce_pure_tree(
            flat.reshape(4, 3), np.zeros(4, int), 2, memo=memo
        )
        assert memo.n_grafted == 0
        assert got[0].nodes[0].n_points == 4

    def test_failed_call_leaves_the_memo_alone(self):
        pts, labels = three_clusters()
        memo = SubtreeMemo()
        tree, _ = induce_pure_tree(pts, labels, 3, memo=memo)
        with pytest.raises(ValueError):
            induce_pure_tree(pts[:0], labels[:0], 3, memo=memo)
        induce_pure_tree(pts, labels, 3, memo=memo)
        assert memo.n_grafted == tree.n_nodes


class TestBoundedTree:
    def test_pure_nodes_split_down_to_max_p(self):
        """A single-class set larger than max_p keeps splitting."""
        pts = np.random.default_rng(0).random((64, 2))
        labels = np.zeros(64, dtype=int)
        tree, _ = induce_bounded_tree(pts, labels, 1, max_p=10, max_i=5)
        for nd in tree.nodes:
            if nd.is_leaf:
                assert nd.n_points < 10

    def test_impure_nodes_stop_below_max_i(self):
        rng = np.random.default_rng(1)
        pts = rng.random((100, 2))
        labels = rng.integers(0, 2, 100)  # thoroughly mixed
        tree, _ = induce_bounded_tree(pts, labels, 2, max_p=100, max_i=20)
        for nd in tree.nodes:
            if nd.is_leaf and not nd.is_pure:
                assert nd.n_points < 20

    def test_impure_nodes_above_max_i_are_split(self):
        rng = np.random.default_rng(2)
        pts = rng.random((200, 2))
        labels = (pts[:, 0] > 0.5).astype(int)
        tree, _ = induce_bounded_tree(pts, labels, 2, max_p=500, max_i=10)
        # root was impure with 200 >= 10 points, so it must have split
        assert not tree.nodes[tree.root].is_leaf

    def test_smaller_bounds_give_bigger_trees(self):
        rng = np.random.default_rng(3)
        pts = rng.random((300, 2))
        labels = (pts[:, 0] + pts[:, 1] > 1.0).astype(int)
        coarse, _ = induce_bounded_tree(pts, labels, 2, max_p=150, max_i=40)
        fine, _ = induce_bounded_tree(pts, labels, 2, max_p=20, max_i=5)
        assert fine.n_nodes > coarse.n_nodes

    def test_leaf_majority_labels_recorded(self):
        pts = np.array([[0.0, 0], [0.1, 0], [0.2, 0], [5.0, 0], [5.1, 0]])
        labels = np.array([0, 0, 1, 1, 1])
        tree, leaf_of = induce_bounded_tree(pts, labels, 2, max_p=10, max_i=10)
        # single leaf (5 < max_i); majority is class 1
        assert tree.n_nodes == 1
        assert tree.nodes[0].label == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        rng = np.random.default_rng(0)
        pts = rng.random((200, 3))
        pts[3, 0] = bad
        with pytest.raises(ValueError, match="^points must be finite"):
            induce_bounded_tree(
                pts, rng.integers(0, 4, 200), 4, max_p=8, max_i=2
            )

    def test_invalid_bounds(self):
        pts = np.random.default_rng(0).random((5, 2))
        with pytest.raises(ValueError, match="max_p and max_i"):
            induce_bounded_tree(pts, np.zeros(5, int), 1, max_p=0, max_i=1)


class TestSuggestedBounds:
    def test_near_paper_windows(self):
        """Defaults sit half a step below the paper's windows (see the
        docstring); they must stay within a factor of k^0.25 of the
        window's low end and below it."""
        n, k = 100_000, 25
        max_p, max_i = suggested_bounds(n, k)
        assert n / k**2 <= max_p <= n / k**1.5
        assert n / k**3 <= max_i <= n / k**2.5

    def test_ordering(self):
        """The paper notes max_i < max_p must hold."""
        for k in (4, 25, 100):
            max_p, max_i = suggested_bounds(50_000, k)
            assert max_i < max_p

    def test_minimum_one(self):
        max_p, max_i = suggested_bounds(10, 100)
        assert max_p >= 1 and max_i >= 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            suggested_bounds(0, 5)
