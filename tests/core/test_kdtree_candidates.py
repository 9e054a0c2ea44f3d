"""Direct tests for the candidate enumeration behind the contact
search (the uniform-grid broad phase in repro.geometry.boxsearch)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import boxsearch
from repro.geometry.boxsearch import candidate_pairs


def _pair_set(arrays):
    b_idx, node_ids = arrays
    return set(zip(b_idx.tolist(), node_ids.tolist()))


class TestCandidatePairs:
    def test_exact_containment(self):
        pts = np.array([[0.5, 0.5], [2.0, 2.0], [0.9, 0.1]])
        ids = np.array([7, 8, 9])
        boxes = np.array([[[0.0, 0.0], [1.0, 1.0]]])
        out = _pair_set(candidate_pairs(boxes, pts, ids))
        assert out == {(0, 7), (0, 9)}

    def test_boundary_points_included(self):
        pts = np.array([[1.0, 1.0]])
        boxes = np.array([[[0.0, 0.0], [1.0, 1.0]]])
        out = _pair_set(candidate_pairs(boxes, pts, np.array([3])))
        assert out == {(0, 3)}

    def test_empty_inputs(self):
        for boxes, pts in (
            (np.empty((0, 2, 2)), np.empty((0, 2))),
            (np.zeros((1, 2, 2)), np.empty((0, 2))),
        ):
            b_idx, node_ids = candidate_pairs(
                boxes, pts, np.empty(0, int)
            )
            assert len(b_idx) == 0 and len(node_ids) == 0
            assert b_idx.dtype == np.int64
            assert node_ids.dtype == np.int64

    def test_returns_parallel_int64_arrays(self):
        pts = np.array([[0.5, 0.5], [0.6, 0.6]])
        boxes = np.array([[[0.0, 0.0], [1.0, 1.0]]])
        b_idx, node_ids = candidate_pairs(
            boxes, pts, np.array([4, 5])
        )
        assert b_idx.shape == node_ids.shape
        assert b_idx.dtype == np.int64
        assert node_ids.dtype == np.int64

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_property_matches_dense_containment(self, seed):
        """The grid path finds exactly the pairs dense containment
        testing finds."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        m = int(rng.integers(1, 10))
        pts = rng.random((n, 3))
        ids = rng.permutation(1000)[:n]
        lo = rng.random((m, 3)) - 0.2
        boxes = np.stack((lo, lo + rng.random((m, 3))), axis=1)
        got = _pair_set(candidate_pairs(boxes, pts, ids))
        expect = set()
        for b in range(m):
            inside = (
                (pts >= boxes[b, 0]) & (pts <= boxes[b, 1])
            ).all(axis=1)
            for pid in ids[inside]:
                expect.add((b, int(pid)))
        assert got == expect


class TestContainmentPass:
    def test_filters_grid_candidates(self):
        """The grid hands the containment pass a point that shares a
        cell with a box but lies outside it; the pass drops it."""
        boxes = np.array(
            [[[0.0, 0.0], [1.0, 1.0]], [[2.0, 2.0], [3.0, 3.0]]]
        )
        pts = np.array([[0.5, 0.5], [1.5, 1.5], [2.5, 2.5], [5.0, 5.0]])
        ids = np.array([10, 11, 12, 13])
        lo, hi = (np.ascontiguousarray(boxes[:, i].T) for i in (0, 1))
        origin = pts.min(axis=0)
        # the smallest cell candidate_pairs uses: the span over
        # ceil(n ** (1 / d)) = 2
        b, p = boxsearch._grid_candidates(
            lo, hi, np.ascontiguousarray(pts.T), origin,
            (pts.max(axis=0) - origin) / 2.0,
        )
        assert (0, 1) in set(zip(b.tolist(), p.tolist()))
        out = _pair_set(candidate_pairs(boxes, pts, ids))
        assert out == {(0, 10), (1, 12)}
