"""Tests for mesh persistence."""

import io

import numpy as np
import pytest

from repro.mesh.generators import structured_box_mesh
from repro.mesh.io import load_mesh, save_mesh
from repro.mesh.mesh import Mesh


def _npy(array):
    out = io.BytesIO()
    np.save(out, array)
    return out.getvalue()


class TestRoundtrip:
    def test_mesh_roundtrip(self, tmp_path):
        m = structured_box_mesh(2, 3, 2)
        m = Mesh(m.nodes, m.elements, m.elem_type,
                 body_id=np.arange(m.num_elements) % 2)
        path = tmp_path / "mesh.npz"
        save_mesh(path, m)
        loaded = load_mesh(path)
        assert np.array_equal(loaded.nodes, m.nodes)
        assert np.array_equal(loaded.elements, m.elements)
        assert loaded.elem_type == m.elem_type
        assert np.array_equal(loaded.body_id, m.body_id)

    def test_loaded_mesh_is_usable(self, tmp_path):
        from repro.mesh.nodal_graph import nodal_graph

        m = structured_box_mesh(2, 2, 2)
        path = tmp_path / "m.npz"
        save_mesh(path, m)
        g = nodal_graph(load_mesh(path))
        g.validate()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_mesh(tmp_path / "nope.npz")

    @pytest.mark.parametrize(
        "damage, cause",
        [
            (lambda blob: b"", "EOFError"),
            (lambda blob: blob[: len(blob) // 2], "BadZipFile"),
            (lambda blob: blob.replace(b"body_id", b"body_ix"), "body_id"),
            (lambda blob: _npy(np.arange(3)), "not an archive"),
        ],
        ids=["empty", "truncated", "member-renamed", "single-npy"],
    )
    def test_unreadable_archive_is_a_value_error(
        self, tmp_path, damage, cause
    ):
        """An archive that cannot be read, or lacks a member, is a
        ValueError naming the path and the cause."""
        path = tmp_path / "m.npz"
        save_mesh(path, structured_box_mesh(2, 2, 2))
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError, match=cause) as info:
            load_mesh(path)
        assert str(path) in str(info.value)
