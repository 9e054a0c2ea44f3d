"""Tests for fragment absorption."""

import numpy as np

from repro.graph.build import from_edge_list, grid_graph
from repro.graph.metrics import total_comm_volume
from repro.partition.config import PartitionOptions
from repro.partition.fragments import absorb_fragments, count_fragments


class TestCountFragments:
    def test_connected_partitions(self):
        g = grid_graph(4, 4)
        part = (np.arange(16) % 4 >= 2).astype(np.int64)
        assert count_fragments(g, part, 2) == 2

    def test_detects_islands(self):
        g = grid_graph(4, 4)
        part = np.zeros(16, dtype=np.int64)
        part[5] = 1  # isolated single-vertex island of partition 1
        part[12:16] = 1  # main body of partition 1
        assert count_fragments(g, part, 2) >= 3


class TestAbsorbFragments:
    def test_absorbs_single_vertex_island(self):
        g = grid_graph(6, 6)
        part = (np.arange(36) % 6 >= 3).astype(np.int64)
        part[0] = 1  # corner vertex stranded inside partition 0
        out, moved = absorb_fragments(
            g, part, 2, PartitionOptions(seed=0)
        )
        assert moved == 1
        assert out[0] == 0
        assert count_fragments(g, out, 2) == 2

    def test_no_change_when_connected(self):
        g = grid_graph(6, 6)
        part = (np.arange(36) % 6 >= 3).astype(np.int64)
        out, moved = absorb_fragments(
            g, part, 2, PartitionOptions(seed=0)
        )
        assert moved == 0

    def test_moves_to_most_connected_partition(self):
        # a 3-column grid split into x-columns; strand a 2-vertex
        # fragment of partition 2 at the far corner of column 0. It has
        # 1 edge into partition 0 (below it) and 2 edges into partition
        # 1 (the next column), so partition 1 must absorb it.
        g = grid_graph(3, 6)  # vertex = x*6 + y
        part = np.repeat([0, 1, 2], 6).astype(np.int64)
        part[0] = part[1] = 2  # y=0,1 of column x=0
        out, moved = absorb_fragments(
            g, part, 3, PartitionOptions(seed=0, ubfactor=1.6)
        )
        assert moved == 2
        assert out[0] == 1 and out[1] == 1

    def test_reduces_comm_volume(self):
        rng = np.random.default_rng(0)
        g = grid_graph(10, 10)
        # checkerboard noise on top of a straight split
        part = (np.arange(100) % 10 >= 5).astype(np.int64)
        noise = rng.choice(100, size=8, replace=False)
        part[noise] ^= 1
        before = total_comm_volume(g, part)
        out, moved = absorb_fragments(
            g, part, 2, PartitionOptions(seed=0, ubfactor=1.3)
        )
        assert total_comm_volume(g, out) < before

    def test_body_isolated_fragment_untouched(self):
        """A fragment on a disconnected body with no foreign neighbours
        must stay (there is nowhere to absorb it into)."""
        # two disjoint 2-cliques
        g = from_edge_list(4, np.array([[0, 1], [2, 3]]))
        part = np.array([0, 0, 0, 0])
        part_in = part.copy()
        out, moved = absorb_fragments(
            g, part, 2, PartitionOptions(seed=0)
        )
        # partition 0 has two components but partition 1 owns nothing
        # adjacent — nothing can move
        assert moved == 0
        assert np.array_equal(out, part_in)
