"""Tests for tree queries: point assignment and box traversal."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtree.induction import induce_pure_tree
from repro.dtree.tree import DecisionTree
from repro.dtree.query import (
    assign_points,
    box_query_pairs,
    predict_partition,
    tree_filter_search,
)


def recursive_point_assign(tree, point):
    nid = 0
    while tree.left[nid] >= 0:
        below = point[tree.dim[nid]] <= tree.threshold[nid]
        nid = tree.left[nid] if below else tree.right[nid]
    return nid


def recursive_box_leaves(tree, box):
    out = set()

    def walk(nid):
        if tree.left[nid] < 0:
            out.add(nid)
            return
        if box[0, tree.dim[nid]] <= tree.threshold[nid]:
            walk(tree.left[nid])
        if box[1, tree.dim[nid]] > tree.threshold[nid]:
            walk(tree.right[nid])

    walk(0)
    return out


def random_tree(seed, n=60, k=3):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    labels = rng.integers(0, k, n)
    tree, _ = induce_pure_tree(pts, labels, k)
    return tree, pts, labels


class TestAssignPoints:
    def test_matches_recursive_walk(self):
        tree, pts, _ = random_tree(0)
        leaves = assign_points(tree, pts)
        for i in range(len(pts)):
            assert leaves[i] == recursive_point_assign(tree, pts[i])

    def test_out_of_domain_points_still_land(self):
        tree, pts, _ = random_tree(1)
        far = np.array([[99.0, 99.0], [-99.0, -99.0]])
        leaves = assign_points(tree, far)
        assert tree.is_leaf[leaves].all()

    def test_single_leaf_tree(self):
        pts = np.random.default_rng(0).random((10, 2))
        tree, _ = induce_pure_tree(pts, np.zeros(10, int), 1)
        assert (assign_points(tree, pts) == 0).all()

    def test_a_tree_built_from_arrays_is_queried_as_built(self):
        # the induced tree with its root's cut moved: every query reads
        # the arrays it was given
        tree, pts, _ = random_tree(0)
        probe = pts[:20].copy()
        probe[:, tree.dim[0]] = tree.threshold[0] - 0.05
        before = assign_points(tree, probe)
        assert tree.is_leaf[before].all()
        threshold = tree.threshold.copy()
        threshold[0] -= 0.1  # every probe now goes right at the root
        moved = DecisionTree(
            tree.n_points, tree.label, tree.is_pure, tree.dim, threshold,
            tree.left, tree.right, tree.k,
        )
        after = assign_points(moved, probe)
        for i in range(len(probe)):
            assert after[i] == recursive_point_assign(moved, probe[i])
        assert not np.array_equal(after, before)
        box = np.stack((probe[:1], probe[:1]), axis=1)
        _, leaves = box_query_pairs(moved, box)
        assert leaves.tolist() == [after[0]]
        assert np.array_equal(assign_points(tree, probe), before)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_property_matches_recursion(self, seed):
        tree, pts, _ = random_tree(seed, n=30)
        rng = np.random.default_rng(seed + 1)
        probe = rng.random((15, 2)) * 2 - 0.5
        leaves = assign_points(tree, probe)
        for i in range(15):
            assert leaves[i] == recursive_point_assign(tree, probe[i])


class TestBoxQuery:
    def test_matches_recursive_traversal(self):
        tree, pts, _ = random_tree(2)
        rng = np.random.default_rng(3)
        lo = rng.random((10, 2))
        boxes = np.stack((lo, lo + 0.3 * rng.random((10, 2))), axis=1)
        b_idx, leaves = box_query_pairs(tree, boxes)
        got = {}
        for b, l in zip(b_idx, leaves):
            got.setdefault(int(b), set()).add(int(l))
        for b in range(10):
            assert got.get(b, set()) == recursive_box_leaves(tree, boxes[b])

    def test_point_box_hits_its_leaf(self):
        tree, pts, _ = random_tree(4)
        boxes = np.stack((pts, pts), axis=1)  # degenerate boxes
        b_idx, leaves = box_query_pairs(tree, boxes)
        point_leaf = assign_points(tree, pts)
        for b, l in zip(b_idx, leaves):
            # a degenerate box may touch multiple leaves if it sits on a
            # threshold, but its own leaf must be among them
            pass
        hit_map = {}
        for b, l in zip(b_idx, leaves):
            hit_map.setdefault(int(b), set()).add(int(l))
        for i in range(len(pts)):
            assert point_leaf[i] in hit_map[i]

    def test_huge_box_reaches_all_leaves(self):
        tree, _, _ = random_tree(5)
        box = np.array([[[-10.0, -10.0], [10.0, 10.0]]])
        _, leaves = box_query_pairs(tree, box)
        assert set(leaves.tolist()) == set(tree.leaf_ids().tolist())

    def test_empty_boxes_array(self):
        tree, _, _ = random_tree(6)
        b, l = box_query_pairs(tree, np.empty((0, 2, 2)))
        assert len(b) == 0 and len(l) == 0

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_property_box_query_completeness(self, seed):
        """Every contact point inside a query box is owned by some leaf
        the box query returns — the completeness invariant the global
        search relies on."""
        tree, pts, labels = random_tree(seed, n=40)
        rng = np.random.default_rng(seed + 7)
        lo = rng.random((8, 2)) - 0.1
        boxes = np.stack((lo, lo + 0.4), axis=1)
        b_idx, leaves = box_query_pairs(tree, boxes)
        hit = {}
        for b, l in zip(b_idx, leaves):
            hit.setdefault(int(b), set()).add(int(l))
        point_leaf = assign_points(tree, pts)
        for b in range(8):
            inside = np.nonzero(
                ((pts >= boxes[b, 0]) & (pts <= boxes[b, 1])).all(axis=1)
            )[0]
            for i in inside:
                assert point_leaf[i] in hit.get(b, set())


class TestTreeFilterSearch:
    def test_no_self_sends(self):
        tree, pts, labels = random_tree(8)
        boxes = np.stack((pts[:5], pts[:5] + 0.01), axis=1)
        owner = predict_partition(tree, pts[:5])
        plan = tree_filter_search(tree, boxes, owner, 3)
        for e in range(5):
            assert not plan.send_matrix[e, owner[e]]

    def test_separated_clusters_zero_remote(self):
        rng = np.random.default_rng(9)
        pts = np.concatenate([rng.random((20, 2)),
                              rng.random((20, 2)) + [10, 0]])
        labels = np.repeat([0, 1], 20)
        tree, _ = induce_pure_tree(pts, labels, 2)
        # elements entirely inside cluster bodies
        boxes = np.stack((pts + 0.001, pts + 0.002), axis=1)
        owner = labels
        plan = tree_filter_search(tree, boxes, owner, 2)
        assert plan.n_remote == 0

    def test_straddling_element_sent(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [4.0, 0.0]])
        labels = np.array([0, 0, 1, 1])
        tree, _ = induce_pure_tree(pts, labels, 2)
        box = np.array([[[0.5, -0.5], [3.5, 0.5]]])  # spans the cut
        plan = tree_filter_search(tree, box, np.array([0]), 2)
        assert np.flatnonzero(plan.send_matrix[0]).tolist() == [1]

    def test_impure_leaf_broadcasts(self):
        # coincident mixed points force an impure leaf
        pts = np.zeros((4, 2))
        labels = np.array([0, 1, 0, 2])
        tree, _ = induce_pure_tree(pts, labels, 3)
        box = np.array([[[-1.0, -1.0], [1.0, 1.0]]])
        plan = tree_filter_search(tree, box, np.array([0]), 3)
        assert np.flatnonzero(plan.send_matrix[0]).tolist() == [1, 2]

    def test_length_mismatch(self):
        tree, pts, _ = random_tree(10)
        with pytest.raises(ValueError, match="lengths differ"):
            tree_filter_search(
                tree, np.empty((2, 2, 2)), np.array([0]), 3
            )

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_owner_out_of_range_rejected(self, bad):
        tree, pts, _ = random_tree(10)
        boxes = np.stack((pts[:2], pts[:2]), axis=1)
        with pytest.raises(ValueError, match=r"element_owner must lie"):
            tree_filter_search(tree, boxes, np.array([0, bad]), 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_boxes_rejected(self, bad):
        tree, pts, _ = random_tree(10)
        boxes = np.stack((pts[:2], pts[:2]), axis=1)
        boxes[1, 1, 0] = bad
        with pytest.raises(ValueError, match="^element_boxes must be finite"):
            tree_filter_search(tree, boxes, np.array([0, 1]), 3)
