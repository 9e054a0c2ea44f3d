"""Test-only oracles: ``boundary_faces`` and ``interior_face_pairs`` as
they stood before :class:`repro.mesh.surface.FaceTable` — each
enumerates the faces of the mesh it is given, sorts every key and
``lexsort``s them all, once per call.

The bodies are verbatim copies; they read the mesh through
``face_nodes``, which the table did not change. The differential tests
in ``test_surface.py`` assert the library versions — and
``FaceTable(mesh).boundary(alive)`` against this ``boundary_faces`` on
``mesh.with_elements(alive)`` — return the same values, dtypes, shapes
and row order (``assert_same_arrays``, the one helper here that is not
an oracle). Do not "fix" or speed these up.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.mesh.mesh import Mesh
from repro.mesh.surface import face_nodes


def assert_same_arrays(got, expected) -> None:
    """Pairwise equal arrays: values (so row order), dtype and shape."""
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


def _face_keys(faces: np.ndarray) -> np.ndarray:
    """Orientation-independent sort key per face (sorted node ids)."""
    return np.sort(faces, axis=1)


def boundary_faces(mesh: Mesh) -> Tuple[np.ndarray, np.ndarray]:
    """Boundary faces of ``mesh``.

    Returns ``(faces, owner_elem)``: faces in original orientation,
    plus the owning element of each. Faces appearing twice (interior)
    are filtered out by grouping on the sorted-node key.
    """
    faces, owner, _ = face_nodes(mesh)
    if len(faces) == 0:
        return faces, owner
    keys = _face_keys(faces)
    order = np.lexsort(keys.T[::-1])
    sk = keys[order]
    new_group = np.any(sk != np.roll(sk, 1, axis=0), axis=1)
    new_group[0] = True
    group_id = np.cumsum(new_group) - 1
    counts = np.bincount(group_id)
    singleton = counts[group_id] == 1
    sel = order[singleton]
    return faces[sel], owner[sel]


def interior_face_pairs(mesh: Mesh) -> np.ndarray:
    """Element pairs sharing a face, ``(p, 2)`` — the dual-graph edges."""
    faces, owner, _ = face_nodes(mesh)
    if len(faces) == 0:
        return np.empty((0, 2), dtype=np.int64)
    keys = _face_keys(faces)
    order = np.lexsort(keys.T[::-1])
    sk = keys[order]
    so = owner[order]
    same_as_prev = np.all(sk[1:] == sk[:-1], axis=1)
    idx = np.nonzero(same_as_prev)[0]
    return np.column_stack((so[idx], so[idx + 1]))
