"""Finite-element mesh substrate.

Meshes are stored as a node coordinate array plus a single-type element
connectivity array (tri/quad in 2D, tet/hex in 3D) with per-element
body ids for multi-body contact scenes. Derived structures — boundary
surfaces, contact node sets, the nodal graph — are computed here
and feed the partitioner and the contact-search pipeline.
"""

from repro.mesh.element import ELEMENT_DIM, ELEMENT_EDGES, ELEMENT_FACES
from repro.mesh.mesh import Mesh
from repro.mesh.surface import (
    FaceTable,
    boundary_faces,
    face_nodes,
    surface_nodes,
)
from repro.mesh.nodal_graph import nodal_graph
from repro.mesh.generators import (
    structured_box_mesh,
    structured_quad_mesh,
    merge_meshes,
)
from repro.mesh.io import load_mesh, save_mesh

__all__ = [
    "ELEMENT_DIM",
    "ELEMENT_EDGES",
    "ELEMENT_FACES",
    "Mesh",
    "FaceTable",
    "boundary_faces",
    "face_nodes",
    "surface_nodes",
    "nodal_graph",
    "structured_box_mesh",
    "structured_quad_mesh",
    "merge_meshes",
    "load_mesh",
    "save_mesh",
]
