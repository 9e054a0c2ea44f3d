"""Tests for nodal graph construction."""

import numpy as np
import pytest

from repro.mesh.generators import structured_box_mesh, structured_quad_mesh
from repro.mesh.nodal_graph import nodal_graph


class TestNodalGraph:
    def test_quad_grid_graph(self):
        m = structured_quad_mesh(3, 2)
        g = nodal_graph(m)
        g.validate()
        assert g.num_vertices == 4 * 3
        # grid edges: 3 per row * 3 rows + 2 per column * 4 columns
        assert g.num_edges == 3 * 3 + 2 * 4

    def test_hex_mesh_degrees(self):
        m = structured_box_mesh(2, 2, 2)
        g = nodal_graph(m)
        g.validate()
        degs = g.degrees()
        # corner nodes have 3 neighbours, the centre node has 6
        assert degs.min() == 3
        assert degs.max() == 6

    def test_custom_vwgts_passthrough(self):
        m = structured_quad_mesh(2, 2)
        vw = np.arange(9).reshape(9, 1)
        g = nodal_graph(m, vwgts=vw)
        assert g.vwgts[:, 0].tolist() == list(range(9))

    def test_orphan_nodes_isolated(self):
        m = structured_quad_mesh(2, 1)
        sub = m.with_elements(np.array([0]))
        g = nodal_graph(sub)
        assert g.num_vertices == m.num_nodes
        # nodes of the dropped element that aren't shared are isolated
        assert (g.degrees() == 0).sum() == 2

    def test_duplicate_mesh_edges_collapse(self):
        """The edge between two elements' shared corner pair appears in
        both elements; the nodal graph must keep weight 1 (combine=max)."""
        m = structured_quad_mesh(2, 1)
        g = nodal_graph(m)
        assert g.adjwgt.max() == 1

    def test_edge_weights_length_checked(self):
        m = structured_quad_mesh(1, 1)
        with pytest.raises(ValueError, match="align"):
            nodal_graph(m, edge_weights=np.ones(3))

