"""Tests for heavy-edge matching."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.build import from_edge_list, grid_graph
from repro.partition.matching import heavy_edge_matching


def check_valid_matching(graph, cmap, n_coarse):
    """Every coarse vertex has 1 or 2 fine vertices; matched pairs are
    adjacent in the graph."""
    assert len(cmap) == graph.num_vertices
    assert cmap.min() >= 0 and cmap.max() == n_coarse - 1
    counts = np.bincount(cmap, minlength=n_coarse)
    assert counts.min() >= 1
    assert counts.max() <= 2
    for c in np.nonzero(counts == 2)[0]:
        u, v = np.nonzero(cmap == c)[0]
        assert v in graph.neighbors(u)


class TestHeavyEdgeMatching:
    def test_valid_on_grid(self):
        g = grid_graph(8, 8)
        cmap, nc = heavy_edge_matching(g, seed=0)
        check_valid_matching(g, cmap, nc)

    def test_shrinks_substantially(self):
        g = grid_graph(20, 20)
        _, nc = heavy_edge_matching(g, seed=0)
        assert nc <= 0.65 * g.num_vertices  # most vertices matched

    def test_prefers_heavy_edges(self):
        # path 0-1-2 with weights 10, 1: the (0,1) edge must be matched
        g = from_edge_list(
            3, np.array([[0, 1], [1, 2]]), weights=np.array([10, 1])
        )
        cmap, nc = heavy_edge_matching(g, seed=0)
        assert cmap[0] == cmap[1]
        assert cmap[2] != cmap[0]

    def test_edgeless_graph_all_singletons(self):
        g = from_edge_list(5, np.empty((0, 2)))
        cmap, nc = heavy_edge_matching(g, seed=0)
        assert nc == 5
        assert sorted(cmap.tolist()) == list(range(5))

    def test_deterministic_seed(self):
        g = grid_graph(10, 10)
        c1, n1 = heavy_edge_matching(g, seed=9)
        c2, n2 = heavy_edge_matching(g, seed=9)
        assert n1 == n2
        assert np.array_equal(c1, c2)

    def test_single_vertex(self):
        g = from_edge_list(1, np.empty((0, 2)))
        cmap, nc = heavy_edge_matching(g, seed=0)
        assert nc == 1

    @given(st.integers(0, 10**6), st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_property_valid_matching_on_random_graphs(self, seed, n):
        rng = np.random.default_rng(seed)
        m = rng.integers(0, 3 * n)
        edges = rng.integers(0, n, size=(m, 2))
        weights = rng.integers(1, 10, size=m)
        g = from_edge_list(n, edges, weights=weights)
        cmap, nc = heavy_edge_matching(g, seed=seed)
        check_valid_matching(g, cmap, nc)
