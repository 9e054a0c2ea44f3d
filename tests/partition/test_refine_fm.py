"""Tests for FM bisection refinement."""

import numpy as np
import pytest

from repro.graph.build import from_edge_list, grid_graph
from repro.graph.metrics import edge_cut, partition_weights
from repro.partition.balance import target_weights, violation
from repro.partition.config import PartitionOptions
from repro.partition.refine_fm import _edge_state, fm_refine_bisection


def fm_gains(graph, part):
    """The FM gains a pass starts from: external minus internal edge
    weight per vertex."""
    return _edge_state(graph, part)[0]


def even_targets(graph):
    return target_weights(graph.total_vwgt, np.array([0.5, 0.5]))


class TestGainVector:
    def test_hand_example(self):
        # path 0-1-2 split [0|1,2]: gains: v0: +1 (its one edge is cut),
        # v1: 1 - 1 = 0, v2: -1
        g = from_edge_list(3, np.array([[0, 1], [1, 2]]))
        gains = fm_gains(g, np.array([0, 1, 1]))
        assert gains.tolist() == [1, 0, -1]

    def test_weighted(self):
        g = from_edge_list(
            3, np.array([[0, 1], [1, 2]]), weights=np.array([4, 6])
        )
        gains = fm_gains(g, np.array([0, 1, 1]))
        assert gains.tolist() == [4, -2, -6]

    def test_gain_predicts_cut_change(self):
        g = grid_graph(6, 6)
        rng = np.random.default_rng(0)
        part = rng.integers(0, 2, 36)
        gains = fm_gains(g, part)
        before = edge_cut(g, part)
        for v in [0, 7, 35]:
            flipped = part.copy()
            flipped[v] ^= 1
            assert edge_cut(g, flipped) == before - gains[v]


class TestFMRefine:
    def test_improves_random_bisection(self):
        g = grid_graph(10, 10)
        rng = np.random.default_rng(1)
        part = rng.integers(0, 2, 100)
        before = edge_cut(g, part)
        out = fm_refine_bisection(
            g, part.copy(), even_targets(g), PartitionOptions(seed=0)
        )
        after = edge_cut(g, out)
        assert after < before

    def test_keeps_balance(self):
        g = grid_graph(10, 10)
        rng = np.random.default_rng(2)
        part = rng.integers(0, 2, 100)
        opts = PartitionOptions(seed=0)
        out = fm_refine_bisection(g, part.copy(), even_targets(g), opts)
        pw = partition_weights(g, out, 2)
        assert violation(pw, even_targets(g), opts.ubfactor) == 0.0

    def test_repairs_gross_imbalance(self):
        g = grid_graph(10, 10)
        part = np.zeros(100, dtype=np.int64)
        part[:10] = 1  # 90/10 split
        opts = PartitionOptions(seed=0)
        out = fm_refine_bisection(g, part, even_targets(g), opts)
        pw = partition_weights(g, out, 2)
        assert violation(pw, even_targets(g), opts.ubfactor) == 0.0

    def test_does_not_worsen_optimal_cut(self):
        g = grid_graph(8, 8)
        part = (np.arange(64) % 8 >= 4).astype(np.int64)  # straight cut = 8
        out = fm_refine_bisection(
            g, part.copy(), even_targets(g), PartitionOptions(seed=0)
        )
        assert edge_cut(g, out) <= 8

    def test_two_constraints_balanced(self):
        g = grid_graph(10, 10)
        vw = np.ones((100, 2), dtype=np.int64)
        vw[:, 1] = (np.arange(100) % 5 == 0).astype(np.int64)
        g = g.with_vwgts(vw)
        rng = np.random.default_rng(3)
        part = rng.integers(0, 2, 100)
        opts = PartitionOptions(seed=0, ubfactor=1.10)
        targets = target_weights(g.total_vwgt, np.array([0.5, 0.5]))
        out = fm_refine_bisection(g, part, targets, opts)
        pw = partition_weights(g, out, 2)
        assert violation(pw, targets, opts.ubfactor) == pytest.approx(0.0)

    def test_uneven_target_fractions(self):
        g = grid_graph(12, 12)
        rng = np.random.default_rng(4)
        part = rng.integers(0, 2, 144)
        targets = target_weights(g.total_vwgt, np.array([0.75, 0.25]))
        opts = PartitionOptions(seed=0)
        out = fm_refine_bisection(g, part, targets, opts)
        pw = partition_weights(g, out, 2)
        assert violation(pw, targets, opts.ubfactor) == 0.0
        frac0 = (out == 0).mean()
        assert 0.7 <= frac0 <= 0.8


@pytest.mark.parametrize("bad", [0, -5])
def test_fm_neg_moves_below_one_is_rejected(bad):
    # a window of 0 would switch every FM and k-way FM hill-climb off
    with pytest.raises(ValueError, match="fm_neg_moves must be >= 1"):
        PartitionOptions(fm_neg_moves=bad)
