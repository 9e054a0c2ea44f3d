"""Tests for the bounding-box-filter global search."""

import numpy as np
import pytest

from repro.geometry.boxsearch import SearchPlan, bbox_filter_search


def two_cluster_setup():
    """Two well-separated clusters of contact points, one element in
    each cluster plus one spanning element."""
    pts = np.concatenate(
        [np.random.default_rng(0).random((20, 2)),
         np.random.default_rng(1).random((20, 2)) + [5.0, 0.0]]
    )
    part = np.repeat([0, 1], 20)
    boxes = np.array(
        [
            [[0.1, 0.1], [0.3, 0.3]],    # inside cluster 0
            [[5.1, 0.1], [5.3, 0.3]],    # inside cluster 1
            [[0.5, 0.2], [5.5, 0.4]],    # spans both
        ]
    )
    owner = np.array([0, 1, 0])
    return boxes, owner, pts, part


class TestBboxFilterSearch:
    def test_local_elements_not_sent(self):
        boxes, owner, pts, part = two_cluster_setup()
        plan = bbox_filter_search(boxes, owner, pts, part, 2)
        assert np.flatnonzero(plan.send_matrix[0]).tolist() == []
        assert np.flatnonzero(plan.send_matrix[1]).tolist() == []

    def test_spanning_element_sent(self):
        boxes, owner, pts, part = two_cluster_setup()
        plan = bbox_filter_search(boxes, owner, pts, part, 2)
        assert np.flatnonzero(plan.send_matrix[2]).tolist() == [1]
        assert plan.n_remote == 1

    def test_false_positive_from_bbox_overlap(self):
        """An L-shaped subdomain's bbox covers space it does not own —
        the classic false positive the paper's tree descriptors
        eliminate."""
        # partition 0 is an L around partition 1's little square
        pts0 = np.array(
            [[0, 0], [4, 0], [0, 4], [1, 0], [0, 1], [4, 1]], dtype=float
        )
        pts1 = np.array([[3.4, 3.4], [3.6, 3.6]])
        pts = np.concatenate([pts0, pts1])
        part = np.array([0] * 6 + [1] * 2)
        # an element owned by 1 sitting in the empty corner of 0's bbox
        boxes = np.array([[[2.0, 2.0], [2.2, 2.2]]])
        owner = np.array([1])
        plan = bbox_filter_search(boxes, owner, pts, part, 2)
        assert plan.n_remote == 1  # false positive: sent to 0 anyway

    def test_pad_widens_sends(self):
        boxes, owner, pts, part = two_cluster_setup()
        near_miss = np.array([[[1.2, 0.0], [1.4, 0.5]]])
        plan0 = bbox_filter_search(near_miss, np.array([0]), pts, part, 2)
        assert plan0.n_remote == 0
        plan1 = bbox_filter_search(
            near_miss, np.array([0]), pts, part, 2, pad=4.0
        )
        assert plan1.n_remote == 1

    def test_receive_counts(self):
        boxes, owner, pts, part = two_cluster_setup()
        plan = bbox_filter_search(boxes, owner, pts, part, 2)
        recv = plan.per_partition_receive_counts()
        assert recv.tolist() == [0, 1]

    def test_length_mismatch_rejected(self):
        boxes, owner, pts, part = two_cluster_setup()
        with pytest.raises(ValueError, match="lengths differ"):
            bbox_filter_search(boxes, owner[:2], pts, part, 2)

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_owner_out_of_range_rejected(self, bad):
        """An owner no rank has must not silently clear another
        partition's column."""
        boxes, owner, pts, part = two_cluster_setup()
        owner = owner.copy()
        owner[-1] = bad
        with pytest.raises(ValueError, match=r"element_owner must lie"):
            bbox_filter_search(boxes, owner, pts, part, 2)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_boxes_rejected(self, bad):
        boxes, owner, pts, part = two_cluster_setup()
        boxes[2, 0, 1] = bad
        with pytest.raises(ValueError, match="^element_boxes must be finite"):
            bbox_filter_search(boxes, owner, pts, part, 2)


class TestSearchPlan:
    def test_n_remote_counts_matrix(self):
        m = np.zeros((3, 2), dtype=bool)
        m[0, 1] = m[2, 0] = True
        plan = SearchPlan(send_matrix=m, owner=np.array([0, 0, 1]))
        assert plan.n_remote == 2
