"""Structured mesh generators for the synthetic contact scenes.

``structured_box_mesh`` (hex) and ``structured_quad_mesh`` (quad) build
axis-aligned blocks — plates and rod projectiles are blocks at
different aspect ratios. ``merge_meshes`` concatenates bodies into one
multi-body mesh *without* node sharing, which is the correct topology
for contact problems (bodies interact through contact search, not
through shared nodes).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.mesh.mesh import Mesh
from repro.utils.validation import check_positive


def structured_box_mesh(
    nx: int,
    ny: int,
    nz: int,
    origin: Sequence[float] = (0.0, 0.0, 0.0),
    size: Sequence[float] = (1.0, 1.0, 1.0),
) -> Mesh:
    """Hex mesh of a box with ``nx × ny × nz`` elements."""
    for name, v in (("nx", nx), ("ny", ny), ("nz", nz)):
        check_positive(name, v)
    origin = np.asarray(origin, dtype=float)
    size = np.asarray(size, dtype=float)
    xs = origin[0] + np.linspace(0, size[0], nx + 1)
    ys = origin[1] + np.linspace(0, size[1], ny + 1)
    zs = origin[2] + np.linspace(0, size[2], nz + 1)
    gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
    nodes = np.column_stack((gx.ravel(), gy.ravel(), gz.ravel()))

    nid = np.arange((nx + 1) * (ny + 1) * (nz + 1)).reshape(
        nx + 1, ny + 1, nz + 1
    )
    c000 = nid[:-1, :-1, :-1].ravel()
    c100 = nid[1:, :-1, :-1].ravel()
    c110 = nid[1:, 1:, :-1].ravel()
    c010 = nid[:-1, 1:, :-1].ravel()
    c001 = nid[:-1, :-1, 1:].ravel()
    c101 = nid[1:, :-1, 1:].ravel()
    c111 = nid[1:, 1:, 1:].ravel()
    c011 = nid[:-1, 1:, 1:].ravel()
    # local ordering: bottom face CCW (z-), then top face above it
    elements = np.column_stack(
        (c000, c100, c110, c010, c001, c101, c111, c011)
    )
    return Mesh(nodes, elements, "hex")


def structured_quad_mesh(
    nx: int,
    ny: int,
    origin: Sequence[float] = (0.0, 0.0),
    size: Sequence[float] = (1.0, 1.0),
) -> Mesh:
    """Quad mesh of a rectangle with ``nx × ny`` elements."""
    check_positive("nx", nx)
    check_positive("ny", ny)
    origin = np.asarray(origin, dtype=float)
    size = np.asarray(size, dtype=float)
    xs = origin[0] + np.linspace(0, size[0], nx + 1)
    ys = origin[1] + np.linspace(0, size[1], ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.column_stack((gx.ravel(), gy.ravel()))
    nid = np.arange((nx + 1) * (ny + 1)).reshape(nx + 1, ny + 1)
    c00 = nid[:-1, :-1].ravel()
    c10 = nid[1:, :-1].ravel()
    c11 = nid[1:, 1:].ravel()
    c01 = nid[:-1, 1:].ravel()
    elements = np.column_stack((c00, c10, c11, c01))
    return Mesh(nodes, elements, "quad")


def hex_to_tet_mesh(mesh: Mesh) -> Mesh:
    """Split every hex of ``mesh`` into 6 tets (EPIC-style tet meshes).

    Uses the corner-0→corner-6 diagonal decomposition, which is
    conforming across neighbouring hexes of the structured generators
    (every shared quad face is split along the same diagonal because
    the local orderings align), so the result has a watertight interior
    and the same boundary surface.
    """
    if mesh.elem_type != "hex":
        raise ValueError("hex_to_tet_mesh needs a hex mesh")
    # 6-tet decomposition around the 0-6 diagonal
    tets_of_hex = np.array(
        [
            [0, 1, 2, 6],
            [0, 2, 3, 6],
            [0, 3, 7, 6],
            [0, 7, 4, 6],
            [0, 4, 5, 6],
            [0, 5, 1, 6],
        ]
    )
    elements = mesh.elements[:, tets_of_hex].reshape(-1, 4)
    body = np.repeat(mesh.body_id, 6)
    return Mesh(mesh.nodes, elements, "tet", body)


def merge_meshes(meshes: Sequence[Mesh]) -> Mesh:
    """Concatenate bodies into one mesh; element ``body_id`` records the
    source mesh index. Node ids of mesh ``i`` are offset by the total
    node count of meshes ``0..i-1``."""
    if not meshes:
        raise ValueError("need at least one mesh")
    elem_type = meshes[0].elem_type
    if any(m.elem_type != elem_type for m in meshes):
        raise ValueError("all meshes must share one element type")
    node_parts, elem_parts, body_parts = [], [], []
    offset = 0
    for i, m in enumerate(meshes):
        node_parts.append(m.nodes)
        elem_parts.append(m.elements + offset)
        body_parts.append(np.full(m.num_elements, i, dtype=np.int64))
        offset += m.num_nodes
    return Mesh(
        np.concatenate(node_parts),
        np.concatenate(elem_parts),
        elem_type,
        np.concatenate(body_parts),
    )
