"""Tests for graph construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.build import (
    from_edge_list,
    grid_coords,
    grid_graph,
    random_geometric_graph,
    to_networkx,
)
from repro.mesh.element import ELEMENT_EDGES, ELEMENT_NODES
from tests.graph.reference_build import (
    assert_same_arrays,
    from_edge_list_reference,
    random_geometric_edges_reference,
)


class TestFromEdgeList:
    def test_dedupes_and_sums(self):
        g = from_edge_list(
            3,
            np.array([[0, 1], [1, 0], [1, 2]]),
            weights=np.array([2, 3, 1]),
        )
        assert g.num_edges == 2
        i = list(g.neighbors(0)).index(1)
        assert g.edge_weights_of(0)[i] == 5

    def test_combine_max(self):
        g = from_edge_list(
            2, np.array([[0, 1], [0, 1]]), weights=np.array([2, 7]),
            combine="max",
        )
        assert g.edge_weights_of(0)[0] == 7

    def test_combine_first(self):
        g = from_edge_list(
            2, np.array([[0, 1], [0, 1]]), weights=np.array([2, 7]),
            combine="first",
        )
        assert g.edge_weights_of(0)[0] == 2

    def test_unknown_combine(self):
        with pytest.raises(ValueError, match="combine"):
            from_edge_list(2, np.array([[0, 1]]), combine="median")

    def test_self_loops_dropped(self):
        g = from_edge_list(2, np.array([[0, 0], [0, 1]]))
        assert g.num_edges == 1
        g.validate()

    def test_empty_graph(self):
        g = from_edge_list(4, np.empty((0, 2)))
        assert g.num_vertices == 4
        assert g.num_edges == 0
        g.validate()

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            from_edge_list(2, np.array([[0, 2]]))

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            from_edge_list(3, np.array([[0, 1]]), weights=np.array([1, 2]))

    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)),
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_always_valid_and_symmetric(self, pairs):
        edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        g = from_edge_list(10, edges)
        g.validate()  # includes symmetry check
        # no duplicate neighbours per vertex
        for v in range(10):
            nbrs = g.neighbors(v).tolist()
            assert len(nbrs) == len(set(nbrs))


class TestFromEdgeListMatchesReference:
    """The rewritten body against the one it replaced
    (``tests/graph/reference_build.py``)."""

    COMBINE = ("sum", "max", "first")

    def both(self, n, edges, **kwargs):
        assert_same_arrays(
            from_edge_list(n, edges, **kwargs),
            from_edge_list_reference(n, edges, **kwargs),
        )

    @pytest.mark.parametrize("combine", COMBINE)
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_multigraph(self, combine, weighted, seed):
        # duplicates in both orientations, self-loops, isolated
        # vertices (ids 40..49 never appear)
        rng = np.random.default_rng(seed)
        edges = rng.integers(0, 40, size=(600, 2))
        weights = rng.integers(1, 9, size=600) if weighted else None
        self.both(50, edges, weights=weights, combine=combine)

    @pytest.mark.parametrize("combine", COMBINE)
    def test_empty_edge_list(self, combine):
        self.both(4, np.empty((0, 2)), combine=combine)
        self.both(0, np.empty((0, 2)), combine=combine)

    @pytest.mark.parametrize("combine", COMBINE)
    def test_only_self_loops(self, combine):
        self.both(3, np.array([[1, 1], [2, 2]]), combine=combine)

    @pytest.mark.parametrize("combine", COMBINE)
    def test_vertex_weights_pass_through(self, combine):
        rng = np.random.default_rng(9)
        edges = rng.integers(0, 30, size=(200, 2))
        vwgts = rng.integers(0, 5, size=(30, 2))
        self.both(30, edges, vwgts=vwgts, combine=combine)

    @pytest.mark.parametrize("elem_type", sorted(ELEMENT_EDGES))
    @pytest.mark.parametrize("combine", COMBINE)
    def test_every_element_edge_table(self, elem_type, combine):
        # the expansion ``nodal_graph`` feeds in: each element's edge
        # table over random connectivity, shared edges duplicated
        rng = np.random.default_rng(3)
        npe = ELEMENT_NODES[elem_type]
        elements = np.array(
            [rng.choice(60, size=npe, replace=False) for _ in range(90)]
        )
        edges = elements[:, ELEMENT_EDGES[elem_type]].reshape(-1, 2)
        weights = rng.integers(1, 6, size=len(edges))
        self.both(64, edges, combine=combine)
        self.both(64, edges, weights=weights, combine=combine)

    def test_non_contiguous_input(self):
        edges = np.random.default_rng(5).integers(0, 20, size=(100, 4))
        self.both(20, edges[:, ::2])

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 9), st.integers(0, 9), st.integers(1, 5)
            ),
            max_size=60,
        ),
        st.sampled_from(COMBINE),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_equal_arrays(self, triples, combine):
        arr = np.array(triples, dtype=np.int64).reshape(-1, 3)
        self.both(10, arr[:, :2], weights=arr[:, 2], combine=combine)


class TestGridGraph:
    def test_2d_edge_count(self):
        g = grid_graph(4, 5)
        assert g.num_vertices == 20
        assert g.num_edges == 3 * 5 + 4 * 4  # (nx-1)*ny + nx*(ny-1)

    def test_3d_edge_count(self):
        g = grid_graph(3, 3, 3)
        assert g.num_edges == 3 * (2 * 3 * 3)

    def test_single_vertex(self):
        g = grid_graph(1, 1)
        assert g.num_vertices == 1
        assert g.num_edges == 0

    def test_coords_align(self):
        pts = grid_coords(3, 2)
        assert pts.shape == (6, 2)
        g = grid_graph(3, 2)
        # neighbours in the graph are at unit distance
        for u, v, _ in g.iter_edges():
            assert np.isclose(np.linalg.norm(pts[u] - pts[v]), 1.0)

    def test_coords_3d(self):
        assert grid_coords(2, 2, 2).shape == (8, 3)


class TestRandomGeometric:
    def test_edges_respect_radius(self):
        g, pts = random_geometric_graph(80, 0.2, seed=0)
        for u, v, _ in g.iter_edges():
            assert np.linalg.norm(pts[u] - pts[v]) <= 0.2 + 1e-12

    def test_all_close_pairs_connected(self):
        g, pts = random_geometric_graph(60, 0.25, seed=1)
        d2 = ((pts[:, None] - pts[None, :]) ** 2).sum(-1)
        expect = {(i, j) for i in range(60) for j in range(i + 1, 60)
                  if d2[i, j] <= 0.25**2}
        got = {(u, v) for u, v, _ in g.iter_edges()}
        assert got == expect

    @pytest.mark.parametrize(
        "n, radius, dim, seed",
        # every (n, radius, seed) the suite draws, then 3-D
        [(80, 0.2, 2, 0), (60, 0.25, 2, 1), (40, 0.3, 2, 5),
         (400, 0.09, 2, 0), (500, 0.08, 2, 2)]
        + [(300, 0.11, 2, s) for s in range(3)]
        + [(200, 0.12, 2, s) for s in range(5)]
        + [(150, 0.2, 3, 4)],
    )
    def test_kdtree_pairs_equal_the_bucket_search(self, n, radius, dim, seed):
        g, pts = random_geometric_graph(n, radius, dim=dim, seed=seed)
        edges, ref_pts = random_geometric_edges_reference(
            n, radius, dim=dim, seed=seed
        )
        assert np.array_equal(pts, ref_pts)
        assert_same_arrays(g, from_edge_list_reference(n, edges))

    def test_deterministic_seed(self):
        g1, p1 = random_geometric_graph(40, 0.3, seed=5)
        g2, p2 = random_geometric_graph(40, 0.3, seed=5)
        assert np.array_equal(p1, p2)
        assert g1.num_edges == g2.num_edges


class TestToNetworkx:
    def test_roundtrip_counts(self):
        g = grid_graph(4, 4)
        nxg = to_networkx(g)
        assert nxg.number_of_nodes() == 16
        assert nxg.number_of_edges() == g.num_edges
