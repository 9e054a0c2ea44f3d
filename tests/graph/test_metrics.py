"""Tests for partition-quality metrics against hand-computed and
brute-force references."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.build import from_edge_list, grid_graph
from repro.graph.metrics import (
    boundary_vertices,
    edge_cut,
    external_degree,
    load_imbalance,
    partition_weights,
    total_comm_volume,
)


def brute_force_volume(graph, part):
    total = 0
    for v in range(graph.num_vertices):
        remote = {int(part[u]) for u in graph.neighbors(v)} - {int(part[v])}
        total += len(remote)
    return total


class TestEdgeCut:
    def test_grid_straight_cut(self):
        g = grid_graph(4, 4)
        part = (np.arange(16) // 4 >= 2).astype(int)  # cut between rows
        assert edge_cut(g, part) == 4

    def test_weighted(self):
        g = from_edge_list(
            3, np.array([[0, 1], [1, 2]]), weights=np.array([5, 7])
        )
        assert edge_cut(g, np.array([0, 0, 1])) == 7
        assert edge_cut(g, np.array([0, 1, 1])) == 5
        assert edge_cut(g, np.array([0, 1, 0])) == 12

    def test_uncut(self):
        g = grid_graph(3, 3)
        assert edge_cut(g, np.zeros(9, dtype=int)) == 0


class TestCommVolume:
    def test_hand_example(self):
        # star: centre 0 with 3 leaves in 3 different partitions
        g = from_edge_list(4, np.array([[0, 1], [0, 2], [0, 3]]))
        part = np.array([0, 1, 1, 2])
        # centre sees partitions {1,2} -> 2; each leaf sees {0} -> 1
        assert total_comm_volume(g, part) == 5

    def test_matches_brute_force_on_grid(self):
        g = grid_graph(6, 6)
        rng = np.random.default_rng(3)
        part = rng.integers(0, 4, 36)
        assert total_comm_volume(g, part) == brute_force_volume(g, part)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_property_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        edges = rng.integers(0, 20, size=(30, 2))
        g = from_edge_list(20, edges)
        part = rng.integers(0, 5, 20)
        assert total_comm_volume(g, part) == brute_force_volume(g, part)

    def test_volume_at_most_cut(self):
        """Each cut edge contributes at most 2 volume; volume <= 2*cut
        for unit weights, and >= something positive when cut > 0."""
        g = grid_graph(8, 8)
        rng = np.random.default_rng(0)
        part = rng.integers(0, 3, 64)
        vol = total_comm_volume(g, part)
        cut = edge_cut(g, part)
        assert vol <= 2 * cut
        assert (vol > 0) == (cut > 0)


class TestWeightsAndImbalance:
    def test_partition_weights(self):
        g = grid_graph(2, 2).with_vwgts(np.array([[1, 0], [2, 1], [3, 0], [4, 1]]))
        pw = partition_weights(g, np.array([0, 0, 1, 1]), 2)
        assert pw.tolist() == [[3, 1], [7, 1]]

    def test_perfect_balance(self):
        g = grid_graph(4, 4)
        part = np.arange(16) % 4
        assert np.allclose(load_imbalance(g, part, 4), 1.0)

    def test_imbalanced(self):
        g = grid_graph(4, 1)
        part = np.array([0, 0, 0, 1])
        imb = load_imbalance(g, part, 2)
        assert np.isclose(imb[0], 3 / 2)

    def test_zero_total_constraint_reports_one(self):
        vw = np.zeros((4, 2), dtype=int)
        vw[:, 0] = 1
        g = grid_graph(4, 1).with_vwgts(vw)
        imb = load_imbalance(g, np.array([0, 0, 1, 1]), 2)
        assert imb[1] == 1.0


class TestBoundary:
    def test_straight_cut_boundary(self):
        g = grid_graph(4, 4)
        part = (np.arange(16) % 4 >= 2).astype(int)
        bnd = boundary_vertices(g, part)
        # columns 1 and 2 form the boundary
        assert sorted(bnd.tolist()) == [
            i for i in range(16) if i % 4 in (1, 2)
        ]

    def test_no_boundary_when_uncut(self):
        g = grid_graph(3, 3)
        assert len(boundary_vertices(g, np.zeros(9, dtype=int))) == 0

    def test_external_degree_counts_foreign_neighbours(self):
        g = grid_graph(5, 4)
        part = np.random.default_rng(0).integers(0, 3, size=20)
        ext = external_degree(g, part)
        assert ext.tolist() == [
            int(np.count_nonzero(part[g.neighbors(v)] != part[v]))
            for v in range(20)
        ]
