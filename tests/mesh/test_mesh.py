"""Tests for the Mesh container."""

import numpy as np
import pytest

from repro.mesh.element import ELEMENT_DIM, ELEMENT_NODES
from repro.mesh.generators import structured_box_mesh, structured_quad_mesh
from repro.mesh.mesh import Mesh
from tests.graph.reference_build import used_nodes_reference


class TestConstruction:
    def test_dim_mismatch_rejected(self):
        nodes = np.zeros((4, 2))
        elems = np.array([[0, 1, 2, 3]])
        with pytest.raises(ValueError, match="3-D"):
            Mesh(nodes, elems, "tet")

    def test_bad_connectivity_rejected(self):
        nodes = np.zeros((3, 2))
        with pytest.raises(ValueError, match="missing nodes"):
            Mesh(nodes, np.array([[0, 1, 5]]), "tri")

    def test_wrong_nodes_per_element(self):
        nodes = np.zeros((4, 2))
        with pytest.raises(ValueError, match="shape"):
            Mesh(nodes, np.array([[0, 1, 2]]), "quad")

    def test_body_id_defaults_to_zero(self):
        m = structured_quad_mesh(2, 2)
        assert (m.body_id == 0).all()

    def test_body_id_length_checked(self):
        nodes = np.zeros((3, 2))
        with pytest.raises(ValueError, match="body_id"):
            Mesh(nodes, np.array([[0, 1, 2]]), "tri", body_id=np.array([0, 1]))


class TestDerived:
    def test_centroids(self):
        m = structured_quad_mesh(1, 1)  # unit square, one element
        assert np.allclose(m.centroids(), [[0.5, 0.5]])

    def test_node_body_id(self):
        m = structured_quad_mesh(2, 1)
        bid = m.node_body_id()
        assert (bid == 0).all()

    def test_used_nodes_complete_for_fresh_mesh(self):
        m = structured_box_mesh(2, 2, 2)
        assert len(m.used_nodes()) == m.num_nodes

    @pytest.mark.parametrize("elem_type", sorted(ELEMENT_NODES))
    @pytest.mark.parametrize("n_elements", [0, 1, 40])
    def test_used_nodes_equals_the_unique_it_replaced(
        self, elem_type, n_elements
    ):
        # sparse connectivity over 200 nodes: most nodes are orphans
        rng = np.random.default_rng(n_elements)
        npe = ELEMENT_NODES[elem_type]
        elements = rng.integers(0, 200, size=(n_elements, npe))
        m = Mesh(np.zeros((200, ELEMENT_DIM[elem_type])), elements, elem_type)
        got, expected = m.used_nodes(), used_nodes_reference(m.elements)
        assert got.dtype == expected.dtype
        assert got.flags["C_CONTIGUOUS"]
        assert np.array_equal(got, expected)


class TestWithElements:
    def test_keep_node_ids(self):
        m = structured_quad_mesh(3, 1)
        sub = m.with_elements(np.array([0, 2]))
        assert sub.num_nodes == m.num_nodes  # node array untouched
        assert sub.num_elements == 2

    def test_bool_mask(self):
        m = structured_quad_mesh(3, 1)
        mask = np.array([True, False, True])
        sub = m.with_elements(mask)
        assert sub.num_elements == 2

    def test_drop_orphans_compacts(self):
        m = structured_quad_mesh(3, 1)
        sub = m.with_elements(np.array([0]), drop_orphans=True)
        assert sub.num_nodes == 4
        assert sub.elements.max() < 4

    def test_body_id_follows_elements(self):
        m = structured_quad_mesh(2, 1)
        m2 = Mesh(m.nodes, m.elements, "quad", body_id=np.array([3, 7]))
        sub = m2.with_elements(np.array([1]))
        assert sub.body_id.tolist() == [7]


class TestTransforms:
    def test_with_nodes_shape_checked(self):
        m = structured_quad_mesh(2, 2)
        with pytest.raises(ValueError, match="shape"):
            m.with_nodes(np.zeros((3, 2)))
