"""Tests for recursive bisection and the k-way entry point."""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.weights import build_contact_graph
from repro.graph.build import grid_graph, random_geometric_graph
from repro.graph.metrics import edge_cut, load_imbalance
from repro.partition.config import PartitionOptions
from repro.partition.kway import partition_kway
from repro.partition.recursive import recursive_bisection


class TestRecursiveBisection:
    def test_labels_cover_range(self):
        g = grid_graph(12, 12)
        part = recursive_bisection(g, 6, PartitionOptions(seed=0))
        assert set(np.unique(part)) == set(range(6))

    def test_k_one(self):
        g = grid_graph(4, 4)
        part = recursive_bisection(g, 1, PartitionOptions(seed=0))
        assert (part == 0).all()

    def test_invalid_k(self):
        with pytest.raises(ValueError, match="k must be"):
            recursive_bisection(grid_graph(3, 3), 0)

    @pytest.mark.parametrize(
        "broken, message",
        [
            (lambda x, a, w, v: (x + 1, a, w, v), "start at 0"),
            (lambda x, a, w, v: (x, a[:-2], w[:-2], v), "xadj\\[-1\\]"),
            (lambda x, a, w, v: (x, a, w, v[:-1]), "rows"),
            (lambda x, a, w, v: (x, a, w, -v), "non-negative"),
            (
                lambda x, a, w, v: (np.r_[x[0], x[2], x[1:-2], x[-1]], a, w, v),
                "non-decreasing",
            ),
        ],
        ids=[
            "offset-xadj", "xadj-past-adjncy", "short-vwgts",
            "negative-vwgts", "decreasing-xadj",
        ],
    )
    def test_malformed_graph_is_refused_at_k_one(self, broken, message):
        """At k = 1 no bisection runs, so the entry check is the only
        one: without it every malformed graph gets labels back."""
        from repro.graph.csr import CSRGraph

        g = grid_graph(4, 4)
        bad = CSRGraph(*broken(g.xadj, g.adjncy, g.adjwgt, g.vwgts))
        with pytest.raises(ValueError, match=message):
            recursive_bisection(bad, 1)

    def test_malformed_graph_object_is_refused_at_k_one(self):
        """A namespace of arrays is checked before any attribute is
        read: the CSR check's error, not AttributeError."""
        g = grid_graph(4, 4)
        bad = types.SimpleNamespace(
            xadj=g.xadj + 1, adjncy=g.adjncy, adjwgt=g.adjwgt, vwgts=g.vwgts
        )
        with pytest.raises(ValueError, match="start at 0"):
            recursive_bisection(bad, 1)


class TestPartitionKway:
    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_balance_across_k(self, k):
        g = grid_graph(16, 16)
        part = partition_kway(g, k, PartitionOptions(seed=0))
        assert load_imbalance(g, part, k).max() <= 1.08

    def test_cut_scales_reasonably(self):
        """More partitions -> more cut, but far below total edges."""
        g = grid_graph(20, 20)
        cuts = [
            edge_cut(g, partition_kway(g, k, PartitionOptions(seed=0)))
            for k in (2, 4, 8)
        ]
        assert cuts[0] < cuts[1] < cuts[2]
        assert cuts[2] < g.num_edges / 3

    def test_two_constraint_balance(self):
        g = grid_graph(16, 16)
        vw = np.ones((256, 2), dtype=np.int64)
        vw[:, 1] = (np.arange(256) % 7 == 0).astype(np.int64)
        g = g.with_vwgts(vw)
        part = partition_kway(g, 4, PartitionOptions(seed=0, ubfactor=1.15))
        imb = load_imbalance(g, part, 4)
        assert imb[0] <= 1.17
        assert imb[1] <= 1.35  # lumpy constraint gets looser slack

    @pytest.mark.parametrize("k", [4, 16, 64])
    def test_grid_cut_near_ideal_tiling(self, k):
        """50×50 grid under the evaluation options: the cut stays within
        2.2× the ideal square tiling, 2·50·(√k − 1) edges (1.09–1.21×
        today), and balance within tolerance."""
        g = grid_graph(50, 50)
        part = partition_kway(g, k, PartitionOptions.strong())
        assert load_imbalance(g, part, k).max() <= 1.06
        assert edge_cut(g, part) <= 2.2 * 2 * 50 * (np.sqrt(k) - 1)

    def test_two_constraint_balance_on_the_contact_graph(self, mid_sequence):
        """Both constraints of the step-0 contact graph (unit edges)
        balance within 1.12 at k = 8 (1.049 and 1.044 today)."""
        g = build_contact_graph(mid_sequence[0], 1)
        part = partition_kway(g, 8, PartitionOptions.strong())
        assert load_imbalance(g, part, 8).max() <= 1.12

    def test_k_exceeds_vertices(self):
        g = grid_graph(2, 2)
        with pytest.raises(ValueError, match="exceeds"):
            partition_kway(g, 5)

    def test_malformed_graph_object_gets_value_error(self):
        """Duck-typed input is checked before any attribute is read: a
        namespace without ``num_vertices`` and with offsets that run
        past ``adjncy`` gets the CSR check's error, not AttributeError."""
        g = grid_graph(3, 3)
        bad = types.SimpleNamespace(
            xadj=g.xadj.copy(), adjncy=g.adjncy[:-2].copy(),
            adjwgt=g.adjwgt[:-2].copy(), vwgts=g.vwgts,
        )
        with pytest.raises(ValueError, match="xadj"):
            partition_kway(bad, 2)

    def test_k_equals_n(self):
        g = grid_graph(2, 2)
        part = partition_kway(g, 4, PartitionOptions(seed=0))
        assert sorted(part.tolist()) == [0, 1, 2, 3]

    def test_deterministic(self):
        g = grid_graph(10, 10)
        a = partition_kway(g, 5, PartitionOptions(seed=11))
        b = partition_kway(g, 5, PartitionOptions(seed=11))
        assert np.array_equal(a, b)

    def test_irregular_graph(self):
        g, _ = random_geometric_graph(500, 0.08, seed=2)
        part = partition_kway(g, 7, PartitionOptions(seed=0))
        assert set(np.unique(part)) == set(range(7))
        assert load_imbalance(g, part, 7).max() <= 1.10

    @given(st.integers(2, 9), st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_property_partition_valid(self, k, seed):
        """Any (k, seed): labels in range, every partition non-empty,
        vertex count preserved."""
        g = grid_graph(9, 9)
        part = partition_kway(g, k, PartitionOptions(seed=seed))
        assert len(part) == 81
        counts = np.bincount(part, minlength=k)
        assert (counts > 0).all()
        assert part.min() >= 0 and part.max() < k
