"""Differential tests: the incremental / batch-scored rebalancer, the
NumPy component labelling (min-label hooking and pointer jumping), the
per-partition fragment scan and the bincount fragment connectivity
must reproduce the scalar oracles in
:mod:`tests.partition.reference_kway` bit for bit — labels, move
counts and the RNG state left behind.  The component labels are also
checked against SciPy's ``csgraph.connected_components``, whose
numbering (by lowest vertex id) they keep; SciPy is a test-side
oracle here, the library does not import it."""

import numpy as np
import pytest
from scipy.sparse import csgraph, csr_matrix

from repro.graph.build import from_edge_list, grid_graph, random_geometric_graph
from repro.graph.metrics import boundary_vertices
from repro.graph.ops import connected_components, label_components
from repro.partition.config import PartitionOptions
from repro.partition.fragments import _fragments_of, absorb_fragments
from repro.partition.refine_kway import rebalance_kway
from tests.partition.reference_kway import (
    _fragments_of_reference,
    absorb_fragments_reference,
    boundary_vertices_reference,
    connected_components_reference,
    rebalance_kway_reference,
)


def two_bodies(nx, ny):
    """Two ``nx × ny`` grids with no edge between them."""
    n = nx * ny
    body = grid_graph(nx, ny).edge_array()[:, :2]
    return from_edge_list(2 * n, np.vstack((body, body + n)))


def random_weights(rng, n, ncon, zero_column=False, heavy=False):
    vw = rng.integers(0, 5, size=(n, ncon))
    if zero_column:
        vw[:, -1] = 0
    if heavy:
        # one vertex outweighs any partition's bound: never feasible
        vw[rng.integers(0, n), 0] = 5 * n
    return vw


def lopsided_partition(rng, n, k):
    """Random labels with half the graph piled onto partition 0."""
    part = rng.integers(0, k, size=n)
    part[rng.permutation(n)[: n // 2]] = 0
    return part.astype(np.int64)


def assert_same_rebalance(graph, part, k, seed=0, **kwargs):
    """Run oracle and library from identical inputs; returns
    ``(n_moved, rng_draws_happened)``."""
    rng_ref, rng_new = (np.random.default_rng(seed) for _ in range(2))
    fresh = np.random.default_rng(seed).bit_generator.state
    exp_part, exp_moved = rebalance_kway_reference(
        graph, part.copy(), k, PartitionOptions(seed=rng_ref), **kwargs
    )
    got_part, got_moved = rebalance_kway(
        graph, part.copy(), k, PartitionOptions(seed=rng_new), **kwargs
    )
    np.testing.assert_array_equal(got_part, exp_part)
    assert got_moved == exp_moved
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    return got_moved, rng_new.bit_generator.state != fresh


class TestRebalanceMatchesReference:
    @pytest.mark.parametrize("ncon", [1, 2, 3])
    @pytest.mark.parametrize("k", [2, 5, 13, 32])
    def test_random_geometric(self, ncon, k):
        moved_total = 0
        for seed in range(3):
            rng = np.random.default_rng(1000 * ncon + 10 * k + seed)
            graph, _ = random_geometric_graph(300, 0.11, seed=seed)
            graph = graph.with_vwgts(random_weights(rng, 300, ncon))
            part = lopsided_partition(rng, 300, k)
            moved, _ = assert_same_rebalance(graph, part, k, seed)
            moved_total += moved
        assert moved_total > 0  # the cases do exercise the move loop

    @pytest.mark.parametrize("ncon", [1, 2, 3])
    def test_grid(self, ncon):
        rng = np.random.default_rng(ncon)
        graph = grid_graph(24, 17)
        graph = graph.with_vwgts(random_weights(rng, 24 * 17, ncon))
        part = lopsided_partition(rng, 24 * 17, 8)
        moved, _ = assert_same_rebalance(graph, part, 8)
        assert moved > 0

    @pytest.mark.parametrize("ncon", [2, 3])
    def test_all_zero_constraint_column(self, ncon):
        rng = np.random.default_rng(7)
        graph = grid_graph(15, 15)
        graph = graph.with_vwgts(
            random_weights(rng, 225, ncon, zero_column=True)
        )
        moved, _ = assert_same_rebalance(
            graph, lopsided_partition(rng, 225, 6), 6
        )
        assert moved > 0

    @pytest.mark.parametrize("sample_cap", [1, 8, 40])
    def test_boundary_larger_than_sample_cap(self, sample_cap):
        rng = np.random.default_rng(sample_cap)
        graph = grid_graph(20, 20)
        graph = graph.with_vwgts(random_weights(rng, 400, 2))
        part = lopsided_partition(rng, 400, 9)
        assert len(boundary_vertices(graph, part)) > 3 * sample_cap
        moved, drew = assert_same_rebalance(
            graph, part, 9, seed=5, sample_cap=sample_cap
        )
        assert moved > 0 and drew  # sampling happened, same draws

    @pytest.mark.parametrize("sample_cap", [4, 384])
    def test_infeasible_input_stops_identically(self, sample_cap):
        rng = np.random.default_rng(11)
        graph = grid_graph(12, 12)
        graph = graph.with_vwgts(random_weights(rng, 144, 2, heavy=True))
        assert_same_rebalance(
            graph, lopsided_partition(rng, 144, 4), 4, sample_cap=sample_cap
        )

    def test_no_improving_move_stops_without_redraw(self):
        # partition 0 is overweight in a constraint whose only carrier
        # is interior and outweighs any bound: moving it never helps,
        # and with every candidate scored there is nothing to redraw
        graph = grid_graph(4, 4)
        vw = np.zeros((16, 1), dtype=np.int64)
        vw[0, 0] = 10
        moved, drew = assert_same_rebalance(
            graph.with_vwgts(vw), np.zeros(16, dtype=np.int64), 2
        )
        assert moved == 0 and not drew

    @pytest.mark.parametrize("max_moves", [0, 1, 7])
    def test_max_moves_cut_off(self, max_moves):
        rng = np.random.default_rng(3)
        graph = grid_graph(16, 16)
        graph = graph.with_vwgts(random_weights(rng, 256, 2))
        moved, _ = assert_same_rebalance(
            graph, lopsided_partition(rng, 256, 5), 5, max_moves=max_moves
        )
        assert moved == max_moves

    @pytest.mark.parametrize("k", [3, 8])
    def test_disconnected_bodies(self, k):
        rng = np.random.default_rng(k)
        graph = two_bodies(9, 8)
        graph = graph.with_vwgts(random_weights(rng, 144, 2))
        # body 0 entirely in partition 0: interior candidates only
        part = rng.integers(1, k, size=144).astype(np.int64)
        part[:72] = 0
        moved, _ = assert_same_rebalance(graph, part, k)
        assert moved > 0


class TestBoundaryMatchesReference:
    @pytest.mark.parametrize("seed", range(5))
    def test_boundary_vertices(self, seed):
        rng = np.random.default_rng(seed)
        graph, _ = random_geometric_graph(200, 0.12, seed=seed)
        part = rng.integers(0, 6, size=200)
        got = boundary_vertices(graph, part)
        exp = boundary_vertices_reference(graph, part)
        assert got.dtype == exp.dtype
        np.testing.assert_array_equal(got, exp)


def scipy_components(graph):
    n = graph.num_vertices
    adjacency = csr_matrix(
        (np.ones(len(graph.adjncy), dtype=np.int8), graph.adjncy, graph.xadj),
        shape=(n, n),
    )
    return csgraph.connected_components(adjacency, directed=False)[1]


def assert_components(graph):
    got = connected_components(graph)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, connected_components_reference(graph))
    np.testing.assert_array_equal(got, scipy_components(graph))
    return got


def relabelled(n, edges, perm):
    """The graph on ``edges`` with vertex ``v`` renamed ``perm[v]``."""
    return from_edge_list(n, perm[np.asarray(edges, dtype=np.int64)])


class TestComponentsMatchReference:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_sparse_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 120))
        edges = rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))
        assert_components(from_edge_list(n, edges))

    @pytest.mark.parametrize("seed", range(5))
    def test_path_with_shuffled_ids(self, seed):
        # a long path whose ids are not in path order takes several
        # hooking rounds (7 for n = 2000, seed 0), not one
        n = 2000
        perm = np.random.default_rng(seed).permutation(n)
        path = np.column_stack((np.arange(n - 1), np.arange(1, n)))
        comp = assert_components(relabelled(n, path, perm))
        assert (comp == 0).all()

    @pytest.mark.parametrize("centre", [0, 7, 39])
    def test_star(self, centre):
        leaves = np.delete(np.arange(40), centre)
        edges = np.column_stack((np.full(39, centre), leaves))
        comp = assert_components(from_edge_list(40, edges))
        assert (comp == 0).all()

    def test_bodies_and_isolated_vertices(self):
        body = grid_graph(5, 4).edge_array()[:, :2]
        graph = from_edge_list(45, np.vstack((body + 3, body + 24)))
        comp = assert_components(graph)
        assert comp.max() + 1 == 2 + 45 - 40  # two bodies, five singles

    def test_shuffled_bodies_and_isolated_vertices(self):
        rng = np.random.default_rng(4)
        body = grid_graph(6, 5).edge_array()[:, :2]
        edges = np.vstack((body, body + 30, body + 60))
        perm = rng.permutation(100)
        comp = assert_components(relabelled(100, edges, perm))
        assert comp.max() + 1 == 3 + 10

    def test_edgeless_graph(self):
        graph = from_edge_list(4, np.empty((0, 2), dtype=np.int64))
        assert assert_components(graph).tolist() == [0, 1, 2, 3]

    def test_empty_graph(self):
        graph = from_edge_list(0, np.empty((0, 2), dtype=np.int64))
        assert connected_components(graph).tolist() == []

    def test_either_edge_direction(self):
        rng = np.random.default_rng(9)
        edges = rng.integers(0, 60, size=(50, 2))
        expected = connected_components(from_edge_list(60, edges))
        for src, dst in ((edges[:, 0], edges[:, 1]),
                         (edges[:, 1], edges[:, 0]),
                         (np.concatenate((edges[:, 0], edges[:, 1])),
                          np.concatenate((edges[:, 1], edges[:, 0])))):
            np.testing.assert_array_equal(
                label_components(60, src, dst), expected
            )



class TestAbsorbMatchesReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_speckled_partitions(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 9))
        graph = grid_graph(18, 14) if seed % 2 else two_bodies(12, 10)
        n = graph.num_vertices
        graph = graph.with_vwgts(random_weights(rng, n, 2))
        # block partition with random specks = many small fragments
        part = (np.arange(n) * k // n).astype(np.int64)
        specks = rng.permutation(n)[: n // 6]
        part[specks] = rng.integers(0, k, size=len(specks))
        exp_part, exp_moved = absorb_fragments_reference(
            graph, part.copy(), k, PartitionOptions(seed=0)
        )
        got_part, got_moved = absorb_fragments(
            graph, part.copy(), k, PartitionOptions(seed=0)
        )
        np.testing.assert_array_equal(got_part, exp_part)
        assert got_moved == exp_moved
        assert got_moved > 0


class TestFragmentsMatchReference:
    """The per-partition scan returns the oracle's vertices and groups:
    same arrays, same order (largest first, ties by lowest vertex)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_speckled_partitions(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 9))
        graph = grid_graph(18, 14) if seed % 2 else two_bodies(12, 10)
        n = graph.num_vertices
        part = (np.arange(n) * k // n).astype(np.int64)
        specks = rng.permutation(n)[: n // 6]
        part[specks] = rng.integers(0, k, size=len(specks))
        part[part == k - 1] = 0  # one empty partition
        for p in range(k):
            exp_verts, exp_groups = _fragments_of_reference(graph, part, p)
            got_verts, got_groups = _fragments_of(graph, part, p)
            np.testing.assert_array_equal(got_verts, exp_verts)
            assert len(got_groups) == len(exp_groups)
            for got, exp in zip(got_groups, exp_groups):
                assert got.dtype == exp.dtype
                np.testing.assert_array_equal(got, exp)
