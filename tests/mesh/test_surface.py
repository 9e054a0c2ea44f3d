"""Tests for surface extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.generators import (
    hex_to_tet_mesh,
    structured_box_mesh,
    structured_quad_mesh,
)
from repro.mesh.mesh import Mesh
from repro.mesh.surface import (
    FaceTable,
    boundary_faces,
    face_nodes,
    interior_face_pairs,
    surface_nodes,
)
from tests.mesh import reference_surface as ref


class TestFaceNodes:
    def test_counts(self):
        m = structured_box_mesh(2, 2, 2)
        faces, owner, local = face_nodes(m)
        assert len(faces) == 8 * 6
        assert owner.max() == 7
        assert set(local.tolist()) == set(range(6))


class TestBoundaryFaces:
    def test_box_face_count(self):
        m = structured_box_mesh(3, 2, 2)
        faces, owner = boundary_faces(m)
        expect = 2 * (3 * 2 + 3 * 2 + 2 * 2)
        assert len(faces) == expect

    def test_quad_boundary_edges(self):
        m = structured_quad_mesh(4, 3)
        faces, _ = boundary_faces(m)
        assert len(faces) == 2 * (4 + 3)

    def test_owner_elements_touch_boundary(self):
        m = structured_box_mesh(3, 3, 3)
        faces, owner = boundary_faces(m)
        # the single interior element (1,1,1) owns no boundary face
        interior = 1 * 9 + 1 * 3 + 1  # element index for (1,1,1)
        assert interior not in owner

    def test_erosion_exposes_new_faces(self):
        """Deleting an interior element turns its faces into boundary —
        the mechanism growing the contact surface in penetration."""
        m = structured_box_mesh(3, 3, 3)
        before, _ = boundary_faces(m)
        centroids = m.centroids()
        centre = np.argmin(
            np.linalg.norm(centroids - centroids.mean(axis=0), axis=1)
        )
        keep = np.ones(27, dtype=bool)
        keep[centre] = False
        after, _ = boundary_faces(m.with_elements(keep))
        assert len(after) == len(before) + 6

    def test_empty_mesh(self):
        m = structured_quad_mesh(1, 1)
        empty = m.with_elements(np.array([], dtype=np.int64))
        faces, owner = boundary_faces(empty)
        assert len(faces) == 0
        assert faces.shape == (0, 2) and owner.shape == (0,)
        assert interior_face_pairs(empty).shape == (0, 2)


class TestSurfaceNodes:
    def test_box_surface_node_count(self):
        m = structured_box_mesh(4, 4, 4)
        sn = surface_nodes(m)
        assert len(sn) == 5**3 - 3**3

    def test_single_element_all_nodes_on_surface(self):
        m = structured_box_mesh(1, 1, 1)
        assert len(surface_nodes(m)) == 8


class TestInteriorFacePairs:
    def test_pair_count(self):
        m = structured_box_mesh(3, 2, 2)
        pairs = interior_face_pairs(m)
        expect = 2 * 2 * 2 + 3 * 1 * 2 + 3 * 2 * 1
        assert len(pairs) == expect

    def test_pairs_are_adjacent_elements(self):
        m = structured_box_mesh(2, 2, 2)
        centroids = m.centroids()
        for a, b in interior_face_pairs(m):
            # face-adjacent hexes in this mesh are at unit spacing
            assert np.isclose(
                np.linalg.norm(centroids[a] - centroids[b]), 0.5
            )


def _mesh(elem_type, nx, ny, nz):
    if elem_type in ("hex", "tet"):
        m = structured_box_mesh(nx, ny, nz)
        return hex_to_tet_mesh(m) if elem_type == "tet" else m
    m = structured_quad_mesh(nx, ny)
    if elem_type == "quad":
        return m
    e = m.elements
    return Mesh(m.nodes, np.vstack((e[:, [0, 1, 2]], e[:, [0, 2, 3]])), "tri")


class TestFaceTableDifferential:
    """The table against the per-call sort it replaced (the verbatim
    oracle in ``reference_surface.py``): values, dtype, shape, order."""

    @given(
        elem_type=st.sampled_from(["tri", "quad", "tet", "hex"]),
        nx=st.integers(1, 4),
        ny=st.integers(1, 4),
        nz=st.integers(1, 3),
        duplicates=st.integers(0, 3),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_boundary_and_pairs_equal_oracle(
        self, elem_type, nx, ny, nz, duplicates, seed
    ):
        rng = np.random.default_rng(seed)
        mesh = _mesh(elem_type, nx, ny, nz)
        m = mesh.num_elements
        # duplicated elements make face groups of 3-4 (non-manifold)
        extra = [rng.integers(0, m, size=max(1, m // 2)) for _ in range(duplicates)]
        mesh = mesh.with_elements(np.concatenate([np.arange(m), *extra]))
        m = mesh.num_elements
        table = FaceTable(mesh)
        pairs = [ref.interior_face_pairs(mesh)]
        ref.assert_same_arrays([table.interior_pairs()], pairs)
        ref.assert_same_arrays([interior_face_pairs(mesh)], pairs)
        ref.assert_same_arrays(boundary_faces(mesh), ref.boundary_faces(mesh))
        one_alive = np.zeros(m, dtype=bool)
        one_alive[rng.integers(m)] = True
        masks = [
            np.ones(m, dtype=bool),
            np.zeros(m, dtype=bool),
            one_alive,
            *(rng.random(m) < p for p in rng.random(4)),
        ]
        for alive in masks:
            ref.assert_same_arrays(
                table.boundary(alive),
                ref.boundary_faces(mesh.with_elements(alive)),
            )

    def test_all_dead_keeps_face_width(self):
        table = FaceTable(structured_box_mesh(2, 2, 1))
        faces, owner = table.boundary(np.zeros(4, dtype=bool))
        assert faces.shape == (0, 4) and owner.shape == (0,)
        assert faces.dtype == owner.dtype == np.int64

    def test_rejects_wrong_mask(self):
        table = FaceTable(structured_quad_mesh(2, 2))
        with pytest.raises(ValueError, match="bool mask of 4"):
            table.boundary(np.ones(3, dtype=bool))
        with pytest.raises(ValueError, match="bool mask of 4"):
            table.boundary(np.arange(4))
