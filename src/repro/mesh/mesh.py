"""The ``Mesh`` container.

A mesh is immutable-by-convention: simulation steps produce *new*
``Mesh`` objects (sharing node arrays where possible) rather than
mutating in place, which keeps snapshot sequences trivially safe to
hold simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.mesh.element import (
    ELEMENT_DIM,
    ELEMENT_NODES,
    check_element_type,
)
from repro.utils.validation import check_array


@dataclass
class Mesh:
    """Single-element-type finite element mesh.

    Attributes
    ----------
    nodes:
        ``float64[n, d]`` node coordinates.
    elements:
        ``int64[m, npe]`` connectivity (node ids per element).
    elem_type:
        One of ``tri``, ``quad``, ``tet``, ``hex``.
    body_id:
        ``int64[m]`` — which physical body each element belongs to
        (projectile = 0, plates = 1, 2, ... in the synthetic scenes);
        defaults to all zeros.
    """

    nodes: np.ndarray
    elements: np.ndarray
    elem_type: str
    body_id: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        check_element_type(self.elem_type)
        self.nodes = np.ascontiguousarray(self.nodes, dtype=float)
        self.elements = np.ascontiguousarray(self.elements, dtype=np.int64)
        check_array("nodes", self.nodes, ndim=2)
        npe = ELEMENT_NODES[self.elem_type]
        check_array("elements", self.elements, ndim=2, shape=(None, npe))
        d = ELEMENT_DIM[self.elem_type]
        if self.nodes.shape[1] != d:
            raise ValueError(
                f"{self.elem_type} mesh needs {d}-D nodes, got "
                f"{self.nodes.shape[1]}-D"
            )
        if self.elements.size and (
            self.elements.min() < 0
            or self.elements.max() >= len(self.nodes)
        ):
            raise ValueError("element connectivity references missing nodes")
        if self.body_id is None:
            self.body_id = np.zeros(len(self.elements), dtype=np.int64)
        else:
            self.body_id = np.ascontiguousarray(self.body_id, dtype=np.int64)
            if len(self.body_id) != len(self.elements):
                raise ValueError("body_id length must match element count")

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes (including any orphaned by erosion)."""
        return len(self.nodes)

    @property
    def num_elements(self) -> int:
        """Number of elements."""
        return len(self.elements)

    @property
    def dim(self) -> int:
        """Spatial dimension (2 or 3)."""
        return self.nodes.shape[1]

    def centroids(self) -> np.ndarray:
        """Element centroids, ``float64[m, d]``."""
        return self.nodes[self.elements].mean(axis=1)

    def node_body_id(self) -> np.ndarray:
        """Body id per node (-1 for orphan nodes).

        A node used by several bodies (should not happen in contact
        scenes, where bodies never share nodes) gets the largest id.
        """
        out = np.full(self.num_nodes, -1, dtype=np.int64)
        flat = self.elements.ravel()
        np.maximum.at(out, flat, np.repeat(self.body_id, self.elements.shape[1]))
        return out

    def used_nodes(self) -> np.ndarray:
        """Sorted ids of nodes referenced by at least one element."""
        # a mark-and-collect over the node range, not a sort of the
        # m * npe connectivity entries
        seen = np.zeros(self.num_nodes, dtype=bool)
        seen[self.elements.ravel()] = True
        return np.flatnonzero(seen)

    def with_elements(
        self, keep: np.ndarray, drop_orphans: bool = False
    ) -> "Mesh":
        """Mesh with only elements ``keep`` (bool mask or index array).

        With ``drop_orphans=False`` (the default, used by the erosion
        simulator) node ids are preserved so snapshot-to-snapshot node
        identity holds. ``drop_orphans=True`` compacts the node array.
        """
        keep = np.asarray(keep)
        if keep.dtype == bool:
            keep = np.nonzero(keep)[0]
        elements = self.elements[keep]
        body = self.body_id[keep]
        if not drop_orphans:
            return Mesh(self.nodes, elements, self.elem_type, body)
        used = np.unique(elements)
        remap = np.full(self.num_nodes, -1, dtype=np.int64)
        remap[used] = np.arange(len(used))
        return Mesh(self.nodes[used], remap[elements], self.elem_type, body)

    def with_nodes(self, nodes: np.ndarray) -> "Mesh":
        """Same topology, new coordinates (a deformation step)."""
        nodes = np.asarray(nodes, dtype=float)
        if nodes.shape != self.nodes.shape:
            raise ValueError(
                f"nodes shape {nodes.shape} must match {self.nodes.shape}"
            )
        return Mesh(nodes, self.elements, self.elem_type, self.body_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Mesh({self.elem_type}, nodes={self.num_nodes}, "
            f"elements={self.num_elements})"
        )
