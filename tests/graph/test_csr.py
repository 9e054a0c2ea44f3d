"""Tests for the CSRGraph container."""

import numpy as np
import pytest

from repro.graph.build import from_edge_list, grid_graph
from repro.graph.csr import CSRGraph


def triangle(vwgts=None):
    return from_edge_list(3, np.array([[0, 1], [1, 2], [0, 2]]), vwgts=vwgts)


class TestBasics:
    def test_counts(self):
        g = triangle()
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert g.ncon == 1

    def test_degrees(self):
        g = triangle()
        assert g.degrees().tolist() == [2, 2, 2]
        assert g.degree(0) == 2

    def test_neighbors_sorted_structure(self):
        g = triangle()
        assert sorted(g.neighbors(0).tolist()) == [1, 2]

    def test_total_vwgt(self):
        vw = np.array([[1, 0], [2, 1], [3, 0]])
        g = triangle(vwgts=vw)
        assert g.total_vwgt.tolist() == [6, 1]

    def test_1d_vwgts_promoted(self):
        g = CSRGraph(
            np.array([0, 1, 2]),
            np.array([1, 0]),
            np.array([1, 1]),
            np.array([5, 7]),
        )
        assert g.vwgts.shape == (2, 1)

    def test_edge_array_matches_iter_edges(self):
        g = grid_graph(4, 3)
        from_iter = sorted(g.iter_edges())
        from_arr = sorted(map(tuple, g.edge_array().tolist()))
        assert from_iter == from_arr

    def test_edge_weights_of_aligned(self):
        g = triangle()
        nbrs = g.neighbors(1)
        wts = g.edge_weights_of(1)
        assert len(nbrs) == len(wts)

    def test_incident_edges_concatenates_rows(self):
        g = grid_graph(5, 4)
        for verts in ([7, 0, 19, 7], [3], []):
            verts = np.array(verts, dtype=np.int64)
            owner, edges = g.incident_edges(verts)
            assert g.adjncy[edges].tolist() == [
                int(u) for v in verts for u in g.neighbors(v)
            ]
            assert owner.tolist() == [
                i for i, v in enumerate(verts) for _ in g.neighbors(v)
            ]


class TestValidate:
    def test_valid_graph_passes(self):
        grid_graph(5, 5).validate()

    def test_self_loop_detected(self):
        g = triangle()
        bad = g.copy()
        bad.adjncy[0] = 0  # vertex 0's first neighbour becomes itself
        with pytest.raises(ValueError, match="self-loop"):
            bad.validate()

    def test_asymmetry_detected(self):
        g = triangle()
        bad = g.copy()
        # point one directed edge somewhere else
        bad.adjncy[0] = 2 if bad.adjncy[0] == 1 else 1
        with pytest.raises(ValueError):
            bad.validate()

    def test_vwgts_length_mismatch(self):
        g = triangle()
        bad = CSRGraph(g.xadj, g.adjncy, g.adjwgt, np.ones((2, 1)))
        with pytest.raises(ValueError, match="vwgts"):
            bad.validate()

    def test_out_of_range_neighbor(self):
        g = triangle()
        bad = g.copy()
        bad.adjncy[0] = 99
        with pytest.raises(ValueError, match="out-of-range"):
            bad.validate()

    def test_weight_asymmetry_detected(self):
        g = triangle()
        bad = g.copy()
        bad.adjwgt[0] = 42  # one direction re-weighted
        with pytest.raises(ValueError, match="not symmetric"):
            bad.validate()


class TestDerivedGraphs:
    def test_with_vwgts_shares_structure(self):
        g = triangle()
        g2 = g.with_vwgts(np.ones((3, 2)))
        assert g2.ncon == 2
        assert g2.xadj is g.xadj

    def test_with_adjwgt_validates_length(self):
        g = triangle()
        with pytest.raises(ValueError, match="length"):
            g.with_adjwgt(np.ones(1))

    def test_copy_is_deep(self):
        g = triangle()
        c = g.copy()
        c.adjwgt[:] = 9
        assert g.adjwgt.max() == 1
