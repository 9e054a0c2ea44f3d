"""Element measures: areas and volumes.

Tests use them as an oracle: generated meshes must tile their bounding
volume exactly.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.mesh import Mesh

# hex → 6 tets decomposition (consistent with the generator's ordering)
_HEX_TETS = np.array(
    [
        [0, 1, 2, 6],
        [0, 2, 3, 6],
        [0, 3, 7, 6],
        [0, 7, 4, 6],
        [0, 4, 5, 6],
        [0, 5, 1, 6],
    ]
)


def _tet_volumes(p: np.ndarray) -> np.ndarray:
    """Signed volumes of tets given ``(m, 4, 3)`` corners."""
    a = p[:, 1] - p[:, 0]
    b = p[:, 2] - p[:, 0]
    c = p[:, 3] - p[:, 0]
    return np.einsum("ij,ij->i", a, np.cross(b, c)) / 6.0


def element_measures(mesh: Mesh) -> np.ndarray:
    """Per-element area (2D) or volume (3D), always non-negative."""
    corners = mesh.nodes[mesh.elements]
    if mesh.elem_type == "tri":
        a = corners[:, 1] - corners[:, 0]
        b = corners[:, 2] - corners[:, 0]
        return np.abs(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]) / 2.0
    if mesh.elem_type == "quad":
        # shoelace over the 4 corners
        x, y = corners[..., 0], corners[..., 1]
        xs = np.roll(x, -1, axis=1)
        ys = np.roll(y, -1, axis=1)
        return np.abs((x * ys - xs * y).sum(axis=1)) / 2.0
    if mesh.elem_type == "tet":
        return np.abs(_tet_volumes(corners))
    if mesh.elem_type == "hex":
        vols = np.zeros(mesh.num_elements)
        for tet in _HEX_TETS:
            vols += np.abs(_tet_volumes(corners[:, tet]))
        return vols
    raise ValueError(f"unsupported element type {mesh.elem_type!r}")
