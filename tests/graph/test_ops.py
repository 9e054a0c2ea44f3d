"""Tests for graph contraction, subgraphs, components."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import networkx as nx

from repro.graph.build import from_edge_list, grid_graph, to_networkx
from repro.graph.ops import (
    connected_components,
    contract,
    induced_subgraph,
)


class TestContract:
    def test_pair_merge(self):
        # path 0-1-2-3; merge (0,1) and (2,3)
        g = from_edge_list(4, np.array([[0, 1], [1, 2], [2, 3]]))
        cg = contract(g, np.array([0, 0, 1, 1]), 2)
        cg.validate()
        assert cg.num_vertices == 2
        assert cg.num_edges == 1
        assert cg.vwgts[:, 0].tolist() == [2, 2]

    def test_parallel_edges_sum(self):
        # square 0-1-2-3-0; merge (0,1) and (2,3): two parallel coarse
        # edges collapse into weight 2
        g = from_edge_list(4, np.array([[0, 1], [1, 2], [2, 3], [3, 0]]))
        cg = contract(g, np.array([0, 0, 1, 1]), 2)
        assert cg.num_edges == 1
        assert cg.adjwgt.max() == 2

    def test_total_weight_conserved(self):
        g = grid_graph(6, 6)
        cmap = np.arange(36) // 3
        cg = contract(g, cmap, 12)
        assert cg.total_vwgt.tolist() == g.total_vwgt.tolist()

    def test_multi_constraint_weights_summed(self):
        vw = np.array([[1, 0], [1, 1], [1, 1]])
        g = from_edge_list(3, np.array([[0, 1], [1, 2]]), vwgts=vw)
        cg = contract(g, np.array([0, 0, 1]), 2)
        assert cg.vwgts.tolist() == [[2, 1], [1, 1]]

    def test_everything_into_one(self):
        g = grid_graph(4, 4)
        cg = contract(g, np.zeros(16, dtype=int), 1)
        assert cg.num_vertices == 1
        assert cg.num_edges == 0

    def test_bad_cmap_length(self):
        g = grid_graph(2, 2)
        with pytest.raises(ValueError, match="cmap length"):
            contract(g, np.zeros(3, dtype=int), 1)

    def test_bad_cmap_range(self):
        g = grid_graph(2, 2)
        with pytest.raises(ValueError, match="out of range"):
            contract(g, np.array([0, 1, 2, 5]), 3)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_property_cut_preserved_under_contraction(self, seed):
        """Contracting within partition sides preserves the cut weight
        between the sides."""
        rng = np.random.default_rng(seed)
        g = grid_graph(5, 5)
        side = rng.integers(0, 2, 25)
        # random contraction that never merges across sides
        sub_id = rng.integers(0, 3, 25)
        cmap_raw = side * 3 + sub_id
        _, inverse = np.unique(cmap_raw, return_inverse=True)
        n_coarse = inverse.max() + 1
        cg = contract(g, inverse, n_coarse)
        cg.validate()
        coarse_side = np.zeros(n_coarse, dtype=int)
        coarse_side[inverse] = side
        from repro.graph.metrics import edge_cut

        assert edge_cut(cg, coarse_side) == edge_cut(g, side)


class TestInducedSubgraph:
    def test_grid_quadrant(self):
        g = grid_graph(4, 4)
        verts = np.array([0, 1, 4, 5])  # a 2x2 corner
        sub, ids = induced_subgraph(g, verts)
        sub.validate()
        assert sub.num_vertices == 4
        assert sub.num_edges == 4
        assert np.array_equal(ids, verts)

    def test_vertex_weights_carried(self):
        vw = np.arange(16).reshape(16, 1)
        g = grid_graph(4, 4).with_vwgts(vw)
        sub, _ = induced_subgraph(g, np.array([3, 7]))
        assert sub.vwgts[:, 0].tolist() == [3, 7]

    def test_empty_selection(self):
        g = grid_graph(3, 3)
        sub, _ = induced_subgraph(g, np.array([], dtype=np.int64))
        assert sub.num_vertices == 0

    def test_matches_networkx(self):
        g = grid_graph(5, 4)
        verts = np.array([0, 1, 2, 5, 6, 10, 11, 15])
        sub, _ = induced_subgraph(g, verts)
        nxg = to_networkx(g).subgraph(verts.tolist())
        assert sub.num_edges == nxg.number_of_edges()


class TestComponents:
    def test_two_components(self):
        g = from_edge_list(5, np.array([[0, 1], [2, 3]]))
        comp = connected_components(g)
        assert comp[0] == comp[1]
        assert comp[2] == comp[3]
        assert comp[0] != comp[2]
        assert len(np.unique(comp)) == 3  # vertex 4 isolated

    def test_connected_grid(self):
        comp = connected_components(grid_graph(6, 6))
        assert (comp == 0).all()

    def test_matches_networkx(self):
        rng = np.random.default_rng(0)
        edges = rng.integers(0, 30, size=(25, 2))
        g = from_edge_list(30, edges)
        comp = connected_components(g)
        nxg = to_networkx(g)
        for cc in nx.connected_components(nxg):
            labels = {comp[v] for v in cc}
            assert len(labels) == 1
