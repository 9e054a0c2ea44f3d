"""Tests for priority-queue k-way FM refinement."""

import numpy as np

from repro.graph.build import grid_graph
from repro.graph.metrics import edge_cut, load_imbalance
from repro.partition.config import PartitionOptions
from repro.partition.refine_kway import greedy_kway_refine
from repro.partition.refine_kway_fm import kway_fm_refine


class TestKwayFmRefine:
    def test_improves_noisy_partition(self):
        g = grid_graph(14, 14)
        part = (np.arange(196) % 14 // 4).astype(np.int64)
        part = np.clip(part, 0, 3)
        rng = np.random.default_rng(0)
        flip = rng.choice(196, size=30, replace=False)
        part[flip] = rng.integers(0, 4, 30)
        before = edge_cut(g, part)
        out = kway_fm_refine(g, part, 4, PartitionOptions(seed=0))
        assert edge_cut(g, out) < before

    def test_never_breaks_feasibility(self):
        g = grid_graph(12, 12)
        part = (np.arange(144) // 36).astype(np.int64)
        opts = PartitionOptions(seed=0)
        out = kway_fm_refine(g, part, 4, opts)
        assert load_imbalance(g, out, 4).max() <= opts.ubfactor + 1e-9

    def test_escapes_greedy_local_minimum(self):
        """FM must do at least as well as the positive-gain-only greedy
        sweep from the same start."""
        g = grid_graph(16, 16)
        rng = np.random.default_rng(1)
        # a feasible but messy start: random balanced assignment
        part = np.repeat(np.arange(4), 64).astype(np.int64)
        rng.shuffle(part)
        opts = PartitionOptions(seed=0)
        greedy = greedy_kway_refine(g, part.copy(), 4, opts)
        fm = kway_fm_refine(g, part.copy(), 4, opts)
        assert edge_cut(g, fm) <= edge_cut(g, greedy)

    def test_converged_input_unchanged_cut(self):
        g = grid_graph(8, 8)
        part = (np.arange(64) % 8 // 4).astype(np.int64)
        out = kway_fm_refine(g, part.copy(), 2, PartitionOptions(seed=0))
        assert edge_cut(g, out) <= 8

    def test_two_constraints_respected(self):
        g = grid_graph(12, 12)
        vw = np.ones((144, 2), dtype=np.int64)
        vw[:, 1] = (np.arange(144) % 6 == 0).astype(np.int64)
        g = g.with_vwgts(vw)
        part = (np.arange(144) // 36).astype(np.int64)
        opts = PartitionOptions(seed=0, ubfactor=1.30)
        before_imb = load_imbalance(g, part, 4)
        out = kway_fm_refine(g, part, 4, opts)
        after_imb = load_imbalance(g, out, 4)
        # feasible moves only: no constraint newly violated
        for j in range(2):
            if before_imb[j] <= opts.ubfactor:
                assert after_imb[j] <= opts.ubfactor + 1e-9

    def test_passes_parameter(self):
        g = grid_graph(10, 10)
        part = np.repeat(np.arange(2), 50).astype(np.int64)
        np.random.default_rng(0).shuffle(part)
        out = kway_fm_refine(
            g, part, 2, PartitionOptions(seed=0, kway_passes=1)
        )
        assert len(out) == 100
