"""Tests for snapshot sequences."""

import numpy as np
import pytest

from repro.mesh.surface import boundary_faces
from repro.sim.sequence import (
    ContactSnapshot,
    extract_contact_surface,
    simulate_impact,
)


class TestSimulateImpact:
    def test_snapshot_count(self, small_sequence):
        assert len(small_sequence) == 12

    def test_nodes_persistent_across_snapshots(self, small_sequence):
        n = small_sequence[0].mesh.num_nodes
        for s in small_sequence:
            assert s.mesh.num_nodes == n

    def test_elements_monotone_nonincreasing(self, small_sequence):
        counts = [s.mesh.num_elements for s in small_sequence]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_tip_strictly_descends(self, small_sequence):
        tips = [s.tip_z for s in small_sequence]
        assert all(a > b for a, b in zip(tips, tips[1:]))

    def test_contact_nodes_are_mesh_nodes(self, small_sequence):
        for s in small_sequence:
            assert s.contact_nodes.max() < s.mesh.num_nodes
            # contact nodes are exactly the nodes of contact faces
            assert np.array_equal(
                s.contact_nodes, np.unique(s.contact_faces)
            )

    def test_contact_faces_are_boundary_faces(self, small_sequence):
        s = small_sequence[5]
        all_faces, _ = boundary_faces(s.mesh)
        keys = {tuple(sorted(f)) for f in all_faces.tolist()}
        for f in s.contact_faces.tolist():
            assert tuple(sorted(f)) in keys

    def test_projectile_faces_always_contact(self, small_sequence):
        for s in (small_sequence[0], small_sequence[-1]):
            owners = s.contact_face_owner
            proj_faces = (s.mesh.body_id[owners] == 0).sum()
            # the whole projectile surface is in the contact set
            faces, owner = boundary_faces(s.mesh)
            total_proj = (s.mesh.body_id[owner] == 0).sum()
            assert proj_faces == total_proj

    def test_contact_fraction_realistic(self, small_sequence):
        """Contact nodes should be a modest fraction of all nodes, like
        the EPIC mesh (~13%)."""
        s = small_sequence[0]
        frac = s.num_contact_nodes / s.mesh.num_nodes
        assert 0.03 <= frac <= 0.5

    def test_n_snapshots_override(self, small_config):
        seq = simulate_impact(small_config, n_snapshots=4)
        assert len(seq) == 4

    def test_zero_snapshots_rejected(self, small_config):
        with pytest.raises(ValueError, match="at least one"):
            simulate_impact(small_config, n_snapshots=0)

    def test_sequence_iteration_and_indexing(self, small_sequence):
        assert isinstance(small_sequence[0], ContactSnapshot)
        assert sum(1 for _ in small_sequence) == len(small_sequence)
        assert small_sequence.num_nodes == small_sequence[0].mesh.num_nodes


class TestExtractContactSurface:
    def test_capture_radius_limits_plate_faces(self, small_sequence):
        s = small_sequence[0]
        faces, owner, nodes = extract_contact_surface(
            s.mesh, capture_radius=0.5
        )
        wide_faces, _, _ = extract_contact_surface(
            s.mesh, capture_radius=100.0
        )
        assert len(faces) < len(wide_faces)

    def test_deterministic(self, small_config):
        a = simulate_impact(small_config)
        b = simulate_impact(small_config)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.mesh.nodes, sb.mesh.nodes)
            assert np.array_equal(sa.contact_faces, sb.contact_faces)
