"""Tests for the initial (greedy graph growing) bisection."""

import numpy as np

from repro.graph.build import from_edge_list, grid_graph
from repro.partition.initial import greedy_graph_growing, initial_bisection


class TestGreedyGraphGrowing:
    def test_produces_two_sides(self):
        g = grid_graph(8, 8)
        part = greedy_graph_growing(g, 0.5, seed_vertex=0)
        assert set(np.unique(part)) == {0, 1}

    def test_roughly_balanced(self):
        g = grid_graph(10, 10)
        part = greedy_graph_growing(g, 0.5, seed_vertex=0)
        frac = (part == 0).mean()
        assert 0.4 <= frac <= 0.6

    def test_respects_target_fraction(self):
        g = grid_graph(10, 10)
        part = greedy_graph_growing(g, 0.25, seed_vertex=0)
        frac = (part == 0).mean()
        assert 0.18 <= frac <= 0.35

    def test_region_is_connected(self):
        """GGGP grows a single region, so side 0 must be connected."""
        g = grid_graph(9, 9)
        part = greedy_graph_growing(g, 0.5, seed_vertex=40)
        from repro.graph.ops import connected_components, induced_subgraph

        sub, _ = induced_subgraph(g, np.nonzero(part == 0)[0])
        assert len(np.unique(connected_components(sub))) == 1

    def test_per_constraint_growth_rule(self):
        """Growing on constraint 1 must balance that constraint even
        when its weight is spatially skewed."""
        n = 100
        g = grid_graph(10, 10)
        vw = np.ones((n, 2), dtype=np.int64)
        vw[:, 1] = 0
        vw[:30, 1] = 1  # constraint-1 weight concentrated in 3 columns
        g = g.with_vwgts(vw)
        part = greedy_graph_growing(g, 0.5, seed_vertex=0, constraint=1)
        w1_side0 = vw[part == 0, 1].sum()
        assert 10 <= w1_side0 <= 20  # near half of 30

    def test_disconnected_component_exhaustion(self):
        """Growth stops gracefully when the seed's component runs out."""
        g = from_edge_list(6, np.array([[0, 1], [2, 3], [4, 5]]))
        part = greedy_graph_growing(g, 0.9, seed_vertex=0)
        # only vertices 0,1 reachable -> side 0 is exactly that component
        assert part[0] == 0 and part[1] == 0
        assert (part[2:] == 1).all()


class TestInitialBisection:
    def test_returns_requested_count(self):
        g = grid_graph(6, 6)
        cands = initial_bisection(g, 0.5, 4, seed=0)
        assert len(cands) == 4

    def test_edgeless_fallback(self):
        g = from_edge_list(10, np.empty((0, 2)))
        cands = initial_bisection(g, 0.5, 3, seed=0)
        assert len(cands) == 3
        for c in cands:
            assert set(np.unique(c)) <= {0, 1}

    def test_deterministic(self):
        g = grid_graph(6, 6)
        a = initial_bisection(g, 0.5, 3, seed=7)
        b = initial_bisection(g, 0.5, 3, seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
