"""Mesh persistence as ``.npz`` archives.

Snapshot sequences from long synthetic runs can be generated once and
replayed by the benchmark harness without re-simulating.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.mesh.mesh import Mesh
from repro.utils.npz import read_npz

PathLike = Union[str, Path]


def save_mesh(path: PathLike, mesh: Mesh) -> None:
    """Write ``mesh`` to ``path`` (``.npz``)."""
    np.savez_compressed(
        Path(path),
        nodes=mesh.nodes,
        elements=mesh.elements,
        elem_type=np.array(mesh.elem_type),
        body_id=mesh.body_id,
    )


def load_mesh(path: PathLike) -> Mesh:
    """Read a mesh written by :func:`save_mesh`.

    A missing file raises ``FileNotFoundError``; an archive that cannot
    be read or lacks a member raises ``ValueError`` naming the path.
    """
    data = read_npz(
        Path(path), required=("nodes", "elements", "elem_type", "body_id")
    )
    return Mesh(
        nodes=data["nodes"],
        elements=data["elements"],
        elem_type=str(data["elem_type"]),
        body_id=data["body_id"],
    )
