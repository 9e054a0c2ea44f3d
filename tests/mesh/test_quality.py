"""Tests for element measures."""

import numpy as np
import pytest

from repro.mesh.generators import structured_box_mesh
from repro.mesh.mesh import Mesh
from repro.mesh.quality import element_measures


class TestMeasures:
    def test_tri_area(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        m = Mesh(nodes, np.array([[0, 1, 2]]), "tri")
        assert element_measures(m)[0] == pytest.approx(0.5)

    def test_tet_volume(self):
        nodes = np.array(
            [[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]]
        )
        m = Mesh(nodes, np.array([[0, 1, 2, 3]]), "tet")
        assert element_measures(m)[0] == pytest.approx(1 / 6)

    def test_unit_hex(self):
        m = structured_box_mesh(1, 1, 1)
        assert element_measures(m)[0] == pytest.approx(1.0)

    def test_sheared_quad(self):
        nodes = np.array([[0.0, 0], [2.0, 0], [3.0, 1], [1.0, 1]])
        m = Mesh(nodes, np.array([[0, 1, 2, 3]]), "quad")
        assert element_measures(m)[0] == pytest.approx(2.0)

    def test_orientation_invariant(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        cw = Mesh(nodes, np.array([[0, 2, 1]]), "tri")  # reversed
        assert element_measures(cw)[0] == pytest.approx(0.5)
