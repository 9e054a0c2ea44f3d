"""Tests for greedy k-way refinement and rebalancing."""

import numpy as np
import pytest

from repro.graph.build import grid_graph
from repro.graph.metrics import edge_cut, load_imbalance
from repro.partition.config import PartitionOptions
from repro.partition.refine_kway import greedy_kway_refine, rebalance_kway


class TestGreedyKwayRefine:
    def test_improves_noisy_partition(self):
        g = grid_graph(12, 12)
        # good partition perturbed with noise
        part = (np.arange(144) % 12 // 3).astype(np.int64)
        rng = np.random.default_rng(0)
        noisy = part.copy()
        flip = rng.choice(144, size=20, replace=False)
        noisy[flip] = rng.integers(0, 4, size=20)
        before = edge_cut(g, noisy)
        out = greedy_kway_refine(g, noisy, 4, PartitionOptions(seed=0))
        assert edge_cut(g, out) < before

    def test_never_breaks_feasibility(self):
        g = grid_graph(10, 10)
        part = (np.arange(100) // 25).astype(np.int64)  # perfect balance
        opts = PartitionOptions(seed=0)
        out = greedy_kway_refine(g, part, 4, opts)
        imb = load_imbalance(g, out, 4)
        assert imb.max() <= opts.ubfactor + 1e-9

    def test_idempotent_on_converged(self):
        g = grid_graph(8, 8)
        part = (np.arange(64) % 8 // 4).astype(np.int64)
        opts = PartitionOptions(seed=0)
        once = greedy_kway_refine(g, part.copy(), 2, opts)
        twice = greedy_kway_refine(g, once.copy(), 2, opts)
        assert edge_cut(g, twice) == edge_cut(g, once)

    def test_k_equal_one_noop(self):
        g = grid_graph(5, 5)
        part = np.zeros(25, dtype=np.int64)
        out = greedy_kway_refine(g, part, 1, PartitionOptions(seed=0))
        assert (out == 0).all()


class TestRebalanceKway:
    def test_fixes_overloaded_partition(self):
        g = grid_graph(10, 10)
        part = np.zeros(100, dtype=np.int64)
        part[:20] = 1
        part[20:40] = 2
        part[40:60] = 3  # partition 0 has 40, others 20
        opts = PartitionOptions(seed=0)
        out, moved = rebalance_kway(g, part, 4, opts)
        imb = load_imbalance(g, out, 4)
        assert imb.max() <= opts.ubfactor + 1e-9
        assert moved > 0

    def test_noop_when_feasible(self):
        g = grid_graph(10, 10)
        part = (np.arange(100) // 25).astype(np.int64)
        out, moved = rebalance_kway(g, part, 4, PartitionOptions(seed=0))
        assert moved == 0

    def test_two_constraint_rebalance(self):
        g = grid_graph(10, 10)
        vw = np.ones((100, 2), dtype=np.int64)
        vw[:, 1] = (np.arange(100) < 20).astype(np.int64)
        g = g.with_vwgts(vw)
        # all the constraint-1 weight initially in partition 0
        part = (np.arange(100) // 25).astype(np.int64)
        opts = PartitionOptions(seed=0, ubfactor=1.25)
        out, moved = rebalance_kway(g, part, 4, opts)
        imb = load_imbalance(g, out, 4)
        assert imb[1] <= opts.ubfactor + 1e-9
        assert imb[0] <= opts.ubfactor + 1e-9

    def test_max_moves_respected(self):
        g = grid_graph(10, 10)
        part = np.zeros(100, dtype=np.int64)
        part[:5] = 1
        out, moved = rebalance_kway(
            g, part, 2, PartitionOptions(seed=0), max_moves=3
        )
        assert moved <= 3

    def test_reports_move_count(self):
        g = grid_graph(8, 8)
        part = np.zeros(64, dtype=np.int64)
        part[:16] = 1
        before = part.copy()
        out, moved = rebalance_kway(g, part, 2, PartitionOptions(seed=0))
        assert moved == int(np.count_nonzero(out != before))

    @pytest.mark.parametrize("bad", [0, -1])
    def test_sample_cap_below_one_is_rejected(self, bad):
        g = grid_graph(8, 8)
        part = np.zeros(64, dtype=np.int64)
        part[:16] = 1
        with pytest.raises(ValueError, match="sample_cap must be >= 1"):
            rebalance_kway(g, part, 2, PartitionOptions(seed=0),
                           sample_cap=bad)
