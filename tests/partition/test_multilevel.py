"""Tests for multilevel bisection."""

import numpy as np
import pytest

from repro.graph.build import from_edge_list, grid_graph, random_geometric_graph
from repro.graph.metrics import edge_cut, load_imbalance
from repro.partition.config import PartitionOptions
from repro.partition.multilevel import multilevel_bisection


class TestMultilevelBisection:
    def test_grid_cut_near_optimal(self):
        g = grid_graph(24, 24)
        part = multilevel_bisection(g, 0.5, PartitionOptions(seed=0))
        # optimal straight cut = 24; multilevel should be within 2x
        assert edge_cut(g, part) <= 48
        assert load_imbalance(g, part, 2).max() <= 1.06

    def test_balanced_on_irregular_graph(self):
        g, _ = random_geometric_graph(400, 0.09, seed=0)
        part = multilevel_bisection(g, 0.5, PartitionOptions(seed=0))
        assert load_imbalance(g, part, 2).max() <= 1.10

    def test_uneven_fraction(self):
        g = grid_graph(20, 20)
        part = multilevel_bisection(g, 0.7, PartitionOptions(seed=0))
        frac0 = (part == 0).mean()
        assert 0.65 <= frac0 <= 0.75

    def test_two_constraints(self):
        g = grid_graph(16, 16)
        vw = np.ones((256, 2), dtype=np.int64)
        # second constraint concentrated in one band
        vw[:, 1] = ((np.arange(256) // 16) < 4).astype(np.int64)
        g = g.with_vwgts(vw)
        part = multilevel_bisection(
            g, 0.5, PartitionOptions(seed=0, ubfactor=1.10)
        )
        imb = load_imbalance(g, part, 2)
        assert imb[0] <= 1.12
        assert imb[1] <= 1.12

    def test_trivial_sizes(self):
        assert len(multilevel_bisection(grid_graph(1, 1), 0.5)) == 1
        g = from_edge_list(0, np.empty((0, 2)))
        assert len(multilevel_bisection(g, 0.5)) == 0

    def test_invalid_fraction(self):
        g = grid_graph(4, 4)
        with pytest.raises(ValueError, match="frac0"):
            multilevel_bisection(g, 1.0)
        with pytest.raises(ValueError, match="frac0"):
            multilevel_bisection(g, 0.0)

    @pytest.mark.parametrize(
        "broken, message",
        [
            (lambda x, a, w, v: (x + 1, a, w, v), "start at 0"),
            (lambda x, a, w, v: (x, a, w, v[:-1]), "rows"),
            (lambda x, a, w, v: (x, a, w, -v), "non-negative"),
        ],
        ids=["offset-xadj", "short-vwgts", "negative-vwgts"],
    )
    def test_malformed_graph_is_refused(self, broken, message):
        # without the entry check, negative weights bisect silently and
        # the other two fail as shape errors deep in the V-cycle
        from repro.graph.csr import CSRGraph

        g = grid_graph(4, 4)
        bad = CSRGraph(*broken(g.xadj, g.adjncy, g.adjwgt, g.vwgts))
        with pytest.raises(ValueError, match=message):
            multilevel_bisection(bad, 0.5)

    def test_deterministic(self):
        g = grid_graph(12, 12)
        a = multilevel_bisection(g, 0.5, PartitionOptions(seed=3))
        b = multilevel_bisection(g, 0.5, PartitionOptions(seed=3))
        assert np.array_equal(a, b)

    def test_better_than_random(self):
        g = grid_graph(16, 16)
        rng = np.random.default_rng(0)
        random_cut = edge_cut(g, rng.integers(0, 2, 256))
        ml_cut = edge_cut(
            g, multilevel_bisection(g, 0.5, PartitionOptions(seed=0))
        )
        assert ml_cut < random_cut / 3
