"""Tests for the coarsening driver."""

import numpy as np

from repro.graph.build import from_edge_list, grid_graph
from repro.partition.coarsen import coarsen
from repro.partition.config import PartitionOptions


class TestCoarsen:
    def test_reaches_target_size(self):
        g = grid_graph(20, 20)
        h = coarsen(g, PartitionOptions(coarsen_to=60, seed=0))
        assert h.coarsest.num_vertices <= 120  # within 2x of target
        assert h.coarsest.num_vertices < g.num_vertices

    def test_levels_chain_consistently(self):
        g = grid_graph(12, 12)
        h = coarsen(g, PartitionOptions(coarsen_to=20, seed=0))
        assert h.levels[0].graph is g
        current = g
        for lvl in h.levels:
            assert lvl.graph.num_vertices == len(lvl.cmap)
            current = lvl.graph
        # cmap of the last level maps into the coarsest graph
        assert h.levels[-1].cmap.max() == h.coarsest.num_vertices - 1

    def test_total_weight_invariant_across_levels(self):
        g = grid_graph(15, 15).with_vwgts(
            np.column_stack(
                (np.ones(225, dtype=int), np.arange(225) % 3 == 0)
            ).astype(np.int64)
        )
        h = coarsen(g, PartitionOptions(coarsen_to=30, seed=0))
        assert h.coarsest.total_vwgt.tolist() == g.total_vwgt.tolist()

    def test_already_small_graph_has_no_levels(self):
        g = grid_graph(4, 4)
        h = coarsen(g, PartitionOptions(coarsen_to=100, seed=0))
        assert h.levels == []
        assert h.coarsest is g

    def test_stalls_gracefully_on_star(self):
        """A star graph can only match one pair per round; coarsening
        must stop rather than loop."""
        n = 50
        edges = np.column_stack((np.zeros(n - 1, dtype=int), np.arange(1, n)))
        g = from_edge_list(n, edges)
        h = coarsen(g, PartitionOptions(coarsen_to=5, seed=0))
        # did not reach 5, but terminated with valid levels
        for lvl in h.levels:
            assert lvl.graph.num_vertices > 0
        h.coarsest.validate()

    def test_project_roundtrip(self):
        g = grid_graph(10, 10)
        h = coarsen(g, PartitionOptions(coarsen_to=25, seed=0))
        part = np.arange(h.coarsest.num_vertices) % 2
        lifted = part
        for i in range(len(h.levels) - 1, -1, -1):
            lifted = h.project(lifted, i)
        assert len(lifted) == g.num_vertices
        assert set(np.unique(lifted)) <= {0, 1}
