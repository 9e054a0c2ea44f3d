"""Tests for AABB utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.bbox import (
    bbox_of_points,
    bboxes_intersect_matrix,
    bboxes_of_groups,
    box_volume,
    element_bboxes,
)


class TestBboxOfPoints:
    def test_basic(self):
        pts = np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 0.5]])
        box = bbox_of_points(pts)
        assert box[0].tolist() == [0.0, -1.0]
        assert box[1].tolist() == [2.0, 1.0]

    def test_single_point_degenerate(self):
        box = bbox_of_points(np.array([[3.0, 4.0]]))
        assert np.array_equal(box[0], box[1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            bbox_of_points(np.empty((0, 2)))


class TestGroupBoxes:
    def test_groups(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]])
        boxes = bboxes_of_groups(pts, np.array([0, 0, 1]), 3)
        assert boxes[0, 0].tolist() == [0.0, 0.0]
        assert boxes[0, 1].tolist() == [1.0, 1.0]
        assert boxes[1, 0].tolist() == [5.0, 5.0]

    def test_empty_group_intersects_nothing(self):
        pts = np.array([[0.0, 0.0]])
        boxes = bboxes_of_groups(pts, np.array([0]), 2)
        probe = np.array([[[-10.0, -10.0], [10.0, 10.0]]])
        hits = bboxes_intersect_matrix(probe, boxes)
        assert hits[0, 0]
        assert not hits[0, 1]  # inverted box never hits

    def test_out_of_range_label_rejected(self):
        pts = np.zeros((3, 2))
        for bad in ([0, 2, 1], [0, -1, 1]):
            with pytest.raises(ValueError, match=r"\[0, 2\)"):
                bboxes_of_groups(pts, np.array(bad), 2)

    def test_no_points(self):
        boxes = bboxes_of_groups(np.empty((0, 3)), np.empty(0, int), 2)
        assert boxes.shape == (2, 2, 3)
        assert (boxes[:, 0] == np.inf).all()
        assert (boxes[:, 1] == -np.inf).all()


class TestElementBboxes:
    def test_quad_faces(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0], [0.0, 2.0]])
        conn = np.array([[0, 1, 2, 3]])
        boxes = element_bboxes(pts, conn)
        assert boxes[0, 0].tolist() == [0.0, 0.0]
        assert boxes[0, 1].tolist() == [1.0, 2.0]

    def test_3d(self):
        pts = np.random.default_rng(0).random((10, 3))
        conn = np.array([[0, 1, 2], [3, 4, 5]])
        boxes = element_bboxes(pts, conn)
        assert boxes.shape == (2, 2, 3)
        assert (boxes[:, 0] <= boxes[:, 1]).all()


class TestIntersectMatrix:
    def test_touching_counts(self):
        a = np.array([[[0.0, 0.0], [1.0, 1.0]]])
        b = np.array([[[1.0, 0.0], [2.0, 1.0]]])  # shares an edge
        assert bboxes_intersect_matrix(a, b)[0, 0]

    def test_disjoint(self):
        a = np.array([[[0.0, 0.0], [1.0, 1.0]]])
        b = np.array([[[2.0, 2.0], [3.0, 3.0]]])
        assert not bboxes_intersect_matrix(a, b)[0, 0]

    def test_pad_extends_reach(self):
        a = np.array([[[0.0, 0.0], [1.0, 1.0]]])
        b = np.array([[[1.5, 0.0], [2.0, 1.0]]])
        assert not bboxes_intersect_matrix(a, b)[0, 0]
        assert bboxes_intersect_matrix(a, b, pad=0.6)[0, 0]

    @pytest.mark.parametrize("m, k", [(7, 4), (0, 4), (7, 0), (0, 0)])
    def test_output_is_c_contiguous(self, m, k):
        """The send matrix is shipped to ranks as-is, so its layout is
        part of the contract — empty shapes included."""
        rng = np.random.default_rng(m + k)
        a = np.sort(rng.random((m, 2, 3)), axis=1)
        b = np.sort(rng.random((k, 2, 3)), axis=1)
        hits = bboxes_intersect_matrix(a, b, pad=0.1)
        assert hits.shape == (m, k)
        assert hits.dtype == np.bool_
        assert hits.flags.c_contiguous

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_property_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        lo_a = rng.random((6, 2))
        a = np.stack((lo_a, lo_a + rng.random((6, 2))), axis=1)
        lo_b = rng.random((5, 2))
        b = np.stack((lo_b, lo_b + rng.random((5, 2))), axis=1)
        got = bboxes_intersect_matrix(a, b)
        for i in range(6):
            for j in range(5):
                expect = all(
                    a[i, 0, d] <= b[j, 1, d] and a[i, 1, d] >= b[j, 0, d]
                    for d in range(2)
                )
                assert got[i, j] == expect


class TestContainsAndVolume:
    def test_volume(self):
        assert box_volume(np.array([[0.0, 0.0], [2.0, 3.0]])) == 6.0

    def test_inverted_box_zero_volume(self):
        assert box_volume(np.array([[1.0, 1.0], [0.0, 0.0]])) == 0.0
