"""Tests for the local-search phase (closest-point projection / gaps)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.local_search import (
    _closest_point_on_segments,
    _closest_point_on_triangles,
    penetration_summary,
    resolve_candidates,
)


class TestSegments:
    def test_interior_projection(self):
        p = np.array([[0.5, 1.0]])
        a, b = np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]])
        out = _closest_point_on_segments(p, a, b)
        assert np.allclose(out, [[0.5, 0.0]])

    def test_clamps_to_endpoints(self):
        p = np.array([[-2.0, 1.0], [3.0, 1.0]])
        a = np.repeat([[0.0, 0.0]], 2, axis=0)
        b = np.repeat([[1.0, 0.0]], 2, axis=0)
        out = _closest_point_on_segments(p, a, b)
        assert np.allclose(out, [[0.0, 0.0], [1.0, 0.0]])

    def test_degenerate_segment(self):
        p = np.array([[1.0, 1.0]])
        a = b = np.array([[0.0, 0.0]])
        out = _closest_point_on_segments(p, a, b)
        assert np.allclose(out, [[0.0, 0.0]])


class TestTriangles:
    def _tri(self):
        return (
            np.array([[0.0, 0.0, 0.0]]),
            np.array([[1.0, 0.0, 0.0]]),
            np.array([[0.0, 1.0, 0.0]]),
        )

    def test_interior(self):
        a, b, c = self._tri()
        p = np.array([[0.25, 0.25, 2.0]])
        out = _closest_point_on_triangles(p, a, b, c)
        assert np.allclose(out, [[0.25, 0.25, 0.0]])

    def test_vertex_regions(self):
        a, b, c = self._tri()
        p = np.array([[-1.0, -1.0, 0.5]])
        out = _closest_point_on_triangles(p, a, b, c)
        assert np.allclose(out, [[0.0, 0.0, 0.0]])

    def test_edge_region(self):
        a, b, c = self._tri()
        p = np.array([[0.5, -1.0, 0.0]])
        out = _closest_point_on_triangles(p, a, b, c)
        assert np.allclose(out, [[0.5, 0.0, 0.0]])

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_property_closest_beats_corners_and_centroid(self, seed):
        """The returned point is never farther than any corner or the
        centroid (a necessary condition of being the closest point)."""
        rng = np.random.default_rng(seed)
        a, b, c = (rng.standard_normal((1, 3)) for _ in range(3))
        p = rng.standard_normal((1, 3)) * 2
        out = _closest_point_on_triangles(p, a, b, c)
        d_out = np.linalg.norm(p - out)
        for ref in (a, b, c, (a + b + c) / 3):
            assert d_out <= np.linalg.norm(p - ref) + 1e-9


class TestResolveCandidates:
    def test_2d_gap_sign(self):
        # an edge along +x; left normal is +y: nodes above have gap > 0
        nodes = np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.5, 0.4], [0.5, -0.3]]
        )
        faces = np.array([[0, 1]])
        res = resolve_candidates(nodes, faces, [(0, 2), (0, 3)])
        assert res.gap[0] == pytest.approx(0.4)
        assert res.gap[1] == pytest.approx(-0.3)
        assert res.penetrating.tolist() == [False, True]

    def test_3d_quad_face(self):
        # unit quad in z=0 plane, CCW from +z: normal +z
        nodes = np.array(
            [
                [0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                [1.0, 1.0, 0.0], [0.0, 1.0, 0.0],
                [0.5, 0.5, 0.25], [0.5, 0.5, -0.5],
            ]
        )
        faces = np.array([[0, 1, 2, 3]])
        res = resolve_candidates(nodes, faces, [(0, 4), (0, 5)])
        assert res.gap[0] == pytest.approx(0.25)
        assert res.gap[1] == pytest.approx(-0.5)
        assert np.allclose(res.point[0], [0.5, 0.5, 0.0])

    def test_empty_candidates(self):
        nodes = np.zeros((3, 2))
        res = resolve_candidates(nodes, np.array([[0, 1]]), [])
        assert len(res.pairs) == 0
        assert res.worst_penetration() == 0.0

    def test_summary(self):
        nodes = np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.5, 0.2], [0.5, -0.1]]
        )
        faces = np.array([[0, 1]])
        res = resolve_candidates(nodes, faces, [(0, 2), (0, 3)])
        s = penetration_summary(res)
        assert s["candidates"] == 2
        assert s["penetrating"] == 1
        assert s["worst_penetration"] == pytest.approx(-0.1)

    def test_pipeline_integration(self, small_sequence):
        """Global search candidates resolve without error on the real
        scene, and deep penetration is absent (the synthetic kinematics
        erode before deep overlap)."""
        from repro.core.contact_search import serial_candidate_pairs
        from repro.geometry.bbox import element_bboxes

        snap = small_sequence[8]
        boxes = element_bboxes(snap.mesh.nodes, snap.contact_faces)
        boxes[:, 0] -= 0.2
        boxes[:, 1] += 0.2
        pairs = serial_candidate_pairs(
            boxes, snap.contact_faces,
            snap.mesh.nodes[snap.contact_nodes], snap.contact_nodes,
        )
        res = resolve_candidates(
            snap.mesh.nodes, snap.contact_faces, sorted(pairs)
        )
        assert len(res.pairs) == len(pairs)
        assert np.isfinite(res.gap).all()
