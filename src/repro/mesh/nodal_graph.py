"""Nodal graph of a mesh (paper §2).

Vertices are mesh nodes; edges connect nodes joined by a mesh edge.
This is the graph the MCML+DT partitioner operates on. Nodes not used
by any element become isolated vertices (they keep their ids so the
partition vector stays node-aligned across erosion steps).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.build import from_edge_list
from repro.graph.csr import CSRGraph
from repro.mesh.element import ELEMENT_EDGES
from repro.mesh.mesh import Mesh


def nodal_graph(
    mesh: Mesh,
    vwgts: Optional[np.ndarray] = None,
    edge_weights: Optional[np.ndarray] = None,
) -> CSRGraph:
    """Build the nodal graph of ``mesh``.

    ``vwgts`` defaults to unit single-constraint weights; callers build
    the two-constraint contact weighting with
    :func:`repro.core.weights.build_contact_graph`. Duplicate mesh
    edges (shared by several elements) collapse to a single graph edge
    of weight 1 (or max of the provided per-edge weights).
    """
    table = ELEMENT_EDGES[mesh.elem_type]
    # (m, 2 * edges per element) -> one row per element edge
    edges = mesh.elements.take(table.ravel(), axis=1).reshape(-1, 2)
    if edge_weights is not None:
        edge_weights = np.asarray(edge_weights, dtype=np.int64)
        if len(edge_weights) != len(edges):
            raise ValueError("edge_weights must align with element edges")
    return from_edge_list(
        mesh.num_nodes, edges, weights=edge_weights, vwgts=vwgts,
        combine="max",
    )
