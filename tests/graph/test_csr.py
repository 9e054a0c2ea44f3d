"""Tests for the CSRGraph container."""

import numpy as np
import pytest

from repro.graph.build import from_edge_list, grid_graph
from repro.graph.csr import CSRGraph


def triangle(vwgts=None):
    return from_edge_list(3, np.array([[0, 1], [1, 2], [0, 2]]), vwgts=vwgts)


class TestBasics:
    def test_counts(self):
        g = triangle()
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert g.ncon == 1

    def test_degrees(self):
        g = triangle()
        assert g.degrees().tolist() == [2, 2, 2]

    def test_neighbors_sorted_structure(self):
        g = triangle()
        assert sorted(g.neighbors(0).tolist()) == [1, 2]

    def test_total_vwgt(self):
        vw = np.array([[1, 0], [2, 1], [3, 0]])
        g = triangle(vwgts=vw)
        assert g.total_vwgt.tolist() == [6, 1]

    def test_1d_vwgts_promoted(self):
        g = CSRGraph(
            np.array([0, 1, 2]),
            np.array([1, 0]),
            np.array([1, 1]),
            np.array([5, 7]),
        )
        assert g.vwgts.shape == (2, 1)

    def test_edge_array_matches_iter_edges(self):
        g = grid_graph(4, 3)
        from_iter = sorted(g.iter_edges())
        from_arr = sorted(map(tuple, g.edge_array().tolist()))
        assert from_iter == from_arr

    def test_edge_weights_of_aligned(self):
        g = triangle()
        nbrs = g.neighbors(1)
        wts = g.edge_weights_of(1)
        assert len(nbrs) == len(wts)

    def test_incident_edges_concatenates_rows(self):
        g = grid_graph(5, 4)
        for verts in ([7, 0, 19, 7], [3], []):
            verts = np.array(verts, dtype=np.int64)
            owner, edges = g.incident_edges(verts)
            assert g.adjncy[edges].tolist() == [
                int(u) for v in verts for u in g.neighbors(v)
            ]
            assert owner.tolist() == [
                i for i, v in enumerate(verts) for _ in g.neighbors(v)
            ]


class TestValidate:
    def test_valid_graph_passes(self):
        grid_graph(5, 5).validate()

    def test_self_loop_detected(self):
        g = triangle()
        bad = g.copy()
        bad.adjncy[0] = 0  # vertex 0's first neighbour becomes itself
        with pytest.raises(ValueError, match="self-loop"):
            bad.validate()

    def test_asymmetry_detected(self):
        g = triangle()
        bad = g.copy()
        # point one directed edge somewhere else
        bad.adjncy[0] = 2 if bad.adjncy[0] == 1 else 1
        with pytest.raises(ValueError):
            bad.validate()

    def test_vwgts_length_mismatch(self):
        g = triangle()
        bad = CSRGraph(g.xadj, g.adjncy, g.adjwgt, np.ones((2, 1)))
        with pytest.raises(ValueError, match="vwgts"):
            bad.validate()

    def test_out_of_range_neighbor(self):
        g = triangle()
        bad = g.copy()
        bad.adjncy[0] = 99
        with pytest.raises(ValueError, match="out-of-range"):
            bad.validate()

    def test_weight_asymmetry_detected(self):
        g = triangle()
        bad = g.copy()
        bad.adjwgt[0] = 42  # one direction re-weighted
        with pytest.raises(ValueError, match="not symmetric"):
            bad.validate()


class TestDerivedGraphs:
    def test_with_vwgts_shares_structure(self):
        g = triangle()
        g2 = g.with_vwgts(np.ones((3, 2)))
        assert g2.ncon == 2
        assert g2.xadj is g.xadj

    def test_with_adjwgt_validates_length(self):
        g = triangle()
        with pytest.raises(ValueError, match="length"):
            g.with_adjwgt(np.ones(1))

    def test_copy_is_deep(self):
        g = triangle()
        c = g.copy()
        c.adjwgt[:] = 9
        assert g.adjwgt.max() == 1


class TestAdjacencyLists:
    """``CSRGraph.lists`` is derived, cached and private to its
    instance: it must never reach a pickle, a comparison, a ``repr`` or
    a graph derived from this one."""

    def weighted(self):
        g = from_edge_list(
            5,
            np.array([[0, 1], [1, 2], [2, 3], [0, 3], [1, 3]]),
            weights=np.array([4, 1, 7, 2, 9]),
        )
        return g.with_vwgts(np.arange(10).reshape(5, 2))

    def assert_mirrors_arrays(self, g):
        lists = g.lists
        assert lists.start == g.xadj.tolist()
        assert lists.nbr == g.adjncy.tolist()
        assert lists.wgt == g.adjwgt.tolist()
        assert lists.vwgt == g.vwgts.ravel().tolist()
        assert lists.ncon == g.ncon
        for v in range(g.num_vertices):
            assert lists.weights(v) == g.vwgts[v].tolist()
        for seq in (lists.start, lists.nbr, lists.wgt, lists.vwgt):
            assert all(type(x) is int for x in seq)

    def test_mirrors_the_arrays_as_python_ints(self):
        g = self.weighted()
        self.assert_mirrors_arrays(g)
        assert g.lists is g.lists  # built once

    def test_isolated_vertices_and_empty_graph(self):
        self.assert_mirrors_arrays(from_edge_list(4, np.array([[1, 2]])))
        self.assert_mirrors_arrays(from_edge_list(3, np.empty((0, 2))))

    def test_not_a_field_not_compared_not_repred(self):
        import dataclasses

        g = self.weighted()
        before = repr(g)
        g.lists
        assert [f.name for f in dataclasses.fields(g)] == [
            "xadj", "adjncy", "adjwgt", "vwgts",
        ]
        assert repr(g) == before
        assert g == g
        same = CSRGraph(g.xadj, g.adjncy, g.adjwgt, g.vwgts)  # no view yet
        assert "lists" in vars(g) and "lists" not in vars(same)
        assert g == same and same == g

    def test_never_pickled(self):
        import pickle

        g = self.weighted()
        before = pickle.dumps(g)
        g.lists
        after = pickle.dumps(g)
        assert after == before and len(after) == len(before)
        loaded = pickle.loads(after)
        assert "lists" not in vars(loaded)
        self.assert_mirrors_arrays(loaded)  # rebuilt on demand

    def test_derived_graphs_get_their_own(self):
        import copy
        import dataclasses

        g = self.weighted()
        g.lists  # a stale view to inherit, if anything did
        derived = {
            "with_vwgts": g.with_vwgts(np.full((5, 3), 6)),
            "with_adjwgt": g.with_adjwgt(g.adjwgt * 10),
            "copy": g.copy(),
            "copy.copy": copy.copy(g),
            "copy.deepcopy": copy.deepcopy(g),
            "replace": dataclasses.replace(g, vwgts=np.ones(5)),
        }
        for name, other in derived.items():
            assert "lists" not in vars(other), name
            self.assert_mirrors_arrays(other)
        assert derived["with_vwgts"].lists.ncon == 3
        assert derived["with_adjwgt"].lists.wgt == (g.adjwgt * 10).tolist()
        self.assert_mirrors_arrays(g)  # and the original's is untouched

    def test_row_index_is_the_row_expansion(self):
        for g in (
            self.weighted(),
            from_edge_list(4, np.array([[1, 2]])),
            from_edge_list(3, np.empty((0, 2))),
        ):
            rows = g.row_index
            np.testing.assert_array_equal(
                rows, np.repeat(np.arange(g.num_vertices), np.diff(g.xadj))
            )
            assert rows.dtype == np.int64 and len(rows) == len(g.adjncy)
            assert g.row_index is rows  # built once
            with pytest.raises(ValueError, match="read-only"):
                rows[:1] = 0

    def test_row_index_never_serialised(self):
        import pickle

        from repro.runtime.backends.wire import to_frames

        g = self.weighted()
        before = pickle.dumps(g)
        frames_before = [bytes(f) for f in to_frames(g)]
        g.row_index
        g.lists
        assert pickle.dumps(g) == before
        assert [bytes(f) for f in to_frames(g)] == frames_before
        loaded = pickle.loads(before)
        assert "row_index" not in vars(loaded)
        np.testing.assert_array_equal(loaded.row_index, g.row_index)

    def test_derived_graphs_start_without_row_index(self):
        g = self.weighted()
        g.row_index
        for other in (
            g.with_vwgts(np.full((5, 3), 6)),
            g.with_adjwgt(g.adjwgt * 10),
            g.copy(),
        ):
            assert "row_index" not in vars(other)
            np.testing.assert_array_equal(other.row_index, g.row_index)

    def test_read_only_arrays(self):
        # what ContactGraphBuilder hands the repartitioner
        from repro.partition.config import PartitionOptions
        from repro.partition.refine_kway import greedy_kway_refine
        from repro.partition.refine_kway_fm import kway_fm_refine

        g = grid_graph(9, 7)
        frozen = g.copy()
        for arr in (frozen.xadj, frozen.adjncy, frozen.adjwgt, frozen.vwgts):
            arr.setflags(write=False)
        self.assert_mirrors_arrays(frozen)
        part = np.random.default_rng(0).integers(0, 4, size=63)
        for refine in (greedy_kway_refine, kway_fm_refine):
            exp = refine(g, part.copy(), 4, PartitionOptions(seed=1))
            got = refine(frozen, part.copy(), 4, PartitionOptions(seed=1))
            assert (got != part).any()
            np.testing.assert_array_equal(got, exp)
