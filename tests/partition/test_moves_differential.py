"""Differential tests: the move loops on Python ints, the one-queue FM
pass, the heapified batches and the sort-free handshake matching must
reproduce the verbatim oracles in :mod:`tests.partition.reference_moves`
bit for bit — labels, partition weights, return flags, move counts,
coarse maps and the RNG state left behind, all compared with ``==``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.build import from_edge_list, grid_graph, random_geometric_graph
from repro.graph.csr import CSRGraph
from repro.graph.metrics import boundary_vertices, partition_weights
from repro.partition import matching, refine_fm, refine_kway_fm
from repro.partition.balance import BalanceTracker, target_weights
from repro.partition.config import PartitionOptions
from repro.partition.initial import greedy_graph_growing, initial_bisection
from repro.partition.pqueue import MaxPQ
from repro.partition.refine_kway import (
    greedy_kway_refine,
    move_gain_cells,
    neighbor_partition_weights,
)
from repro.partition.refine_kway_fm import kway_fm_refine
from tests.partition import reference_moves as ref


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def two_bodies(nx, ny):
    """Two ``nx × ny`` grids with no edge between them."""
    n = nx * ny
    body = grid_graph(nx, ny).edge_array()[:, :2]
    return from_edge_list(2 * n, np.vstack((body, body + n)))


def reweighted(graph, rng, high):
    """``graph`` with random edge weights in ``[1, high]`` (symmetric)."""
    edges = graph.edge_array()
    return from_edge_list(
        graph.num_vertices,
        edges[:, :2],
        weights=rng.integers(1, high + 1, size=len(edges)),
    )


def graph_zoo():
    """Name → graph: unit weights tie every gain, small weights tie
    many, large ones few; disconnected, edgeless and isolated-vertex
    graphs exercise the empty-row paths."""
    rng = np.random.default_rng(99)
    grid = grid_graph(11, 9)
    geometric, _ = random_geometric_graph(150, 0.14, seed=3)
    return {
        "grid-unit": grid,
        "grid-ties": reweighted(grid, rng, 3),
        "geometric-heavy": reweighted(geometric, rng, 50),
        "two-bodies": two_bodies(7, 6),
        "edgeless": from_edge_list(14, np.empty((0, 2))),
        "isolated": from_edge_list(  # a grid plus six vertices of degree 0
            46, grid_graph(8, 5).edge_array()[:, :2]
        ),
    }


ZOO = graph_zoo()


def random_vwgts(rng, n, ncon, zero_column=False):
    vw = rng.integers(0, 5, size=(n, ncon))
    if zero_column:
        vw[:, -1] = 0  # a zero-total constraint: never binding
    return vw


def bisection_start(rng, n, kind):
    if kind == "random":
        return rng.integers(0, 2, size=n).astype(np.int64)
    if kind == "lopsided":  # infeasible: nine tenths on side 0
        part = np.zeros(n, dtype=np.int64)
        part[rng.permutation(n)[: n // 10]] = 1
        return part
    return np.ones(n, dtype=np.int64)  # one side empty, no boundary


def kway_start(rng, n, k):
    """Random labels with a third of the graph piled onto partition 0."""
    part = rng.integers(0, k, size=n)
    part[rng.permutation(n)[: n // 3]] = 0
    return part.astype(np.int64)


def new_tracker(graph, part, targets, ubfactor):
    return BalanceTracker(partition_weights(graph, part, 2), targets, ubfactor)


# ----------------------------------------------------------------------
# FM bisection refinement
# ----------------------------------------------------------------------


def assert_same_fm_pass(graph, part, targets, options):
    exp_part = part.copy()
    exp_pw = ref._partition_weights2(graph, exp_part)
    exp_flag = ref._fm_pass(graph, exp_part, exp_pw, targets, options)
    got_part = part.copy()
    tracker = new_tracker(graph, got_part, targets, options.ubfactor)
    got_flag = refine_fm._fm_pass(graph, got_part, tracker, options)
    assert got_flag == exp_flag
    np.testing.assert_array_equal(got_part, exp_part)
    assert tracker.pwgts_array().tolist() == exp_pw.tolist()
    # the pass writes the weights in place and resyncs once: the
    # violation state is a fresh tracker's, exactly
    fresh = new_tracker(graph, got_part, targets, options.ubfactor)
    for p in (0, 1):
        assert tracker.violation_of(p) == fresh.violation_of(p)
    assert tracker.worst() == fresh.worst()
    assert tracker.total == fresh.total
    return int(np.count_nonzero(got_part != part))


def assert_same_rebalance(graph, part, targets, ubfactor, max_moves):
    exp_part = part.copy()
    exp_pw = ref._partition_weights2(graph, exp_part)
    ref._rebalance(graph, exp_part, exp_pw, targets, ubfactor, max_moves)
    got_part = part.copy()
    tracker = new_tracker(graph, got_part, targets, ubfactor)
    refine_fm._rebalance(graph, got_part, tracker, max_moves)
    np.testing.assert_array_equal(got_part, exp_part)
    assert tracker.pwgts_array().tolist() == exp_pw.tolist()
    return int(np.count_nonzero(got_part != part))


def assert_same_fm_refine(graph, part, targets, options):
    exp = ref.fm_refine_bisection(graph, part.copy(), targets, options)
    got = refine_fm.fm_refine_bisection(graph, part.copy(), targets, options)
    np.testing.assert_array_equal(got, exp)
    return int(np.count_nonzero(got != part))


class TestFMMatchesReference:
    @pytest.mark.parametrize("name", sorted(ZOO))
    @pytest.mark.parametrize("ncon", [1, 2, 3])
    def test_pass_rebalance_and_driver(self, name, ncon):
        graph = ZOO[name]
        n = graph.num_vertices
        moved = 0
        for seed, kind in enumerate(("random", "lopsided", "one-sided")):
            rng = np.random.default_rng(100 * ncon + seed)
            g = graph.with_vwgts(
                random_vwgts(rng, n, ncon, zero_column=ncon > 1 and seed == 1)
            )
            part = bisection_start(rng, n, kind)
            for frac0 in (0.5, 0.3):
                targets = target_weights(
                    g.total_vwgt, np.array([frac0, 1.0 - frac0])
                )
                options = PartitionOptions(seed=0)
                moved += assert_same_fm_pass(g, part, targets, options)
                moved += assert_same_rebalance(g, part, targets, 1.05, n)
                moved += assert_same_fm_refine(g, part, targets, options)
        if graph.num_edges:
            assert moved > 0  # the cases do exercise the loops

    @pytest.mark.parametrize("fm_neg_moves", [1, 2, 5, 17])
    def test_hill_climb_window(self, fm_neg_moves):
        # a short window ends the pass after a few moves: equal results
        # at every window pin the move sequence, not just its end
        rng = np.random.default_rng(fm_neg_moves)
        g = ZOO["grid-ties"].with_vwgts(random_vwgts(rng, 99, 2))
        part = bisection_start(rng, 99, "random")
        targets = target_weights(g.total_vwgt, np.array([0.5, 0.5]))
        options = PartitionOptions(seed=0, fm_neg_moves=fm_neg_moves)
        assert assert_same_fm_pass(g, part, targets, options) >= 0
        assert_same_fm_refine(g, part, targets, options)

    @pytest.mark.parametrize("max_moves", [0, 1, 2, 5, 23])
    def test_rebalance_move_by_move(self, max_moves):
        rng = np.random.default_rng(7)
        g = ZOO["geometric-heavy"].with_vwgts(random_vwgts(rng, 150, 2))
        part = bisection_start(rng, 150, "lopsided")
        targets = target_weights(g.total_vwgt, np.array([0.5, 0.5]))
        moved = assert_same_rebalance(g, part, targets, 1.03, max_moves)
        assert moved == max_moves

    @pytest.mark.parametrize("ubfactor", [1.003, 1.05, 1.5])
    def test_tolerances(self, ubfactor):
        # a tight bound makes most moves infeasible (the discard path)
        rng = np.random.default_rng(11)
        g = ZOO["grid-unit"].with_vwgts(random_vwgts(rng, 99, 3))
        targets = target_weights(g.total_vwgt, np.array([0.6, 0.4]))
        options = PartitionOptions(seed=0, ubfactor=ubfactor)
        for kind in ("random", "lopsided"):
            part = bisection_start(rng, 99, kind)
            assert_same_fm_pass(g, part, targets, options)
            assert_same_fm_refine(g, part, targets, options)

    def test_tracker_is_shared_across_passes(self):
        # one tracker serves every pass of a call; the oracle builds a
        # fresh one per pass from integer weights — same decisions
        rng = np.random.default_rng(5)
        g = ZOO["geometric-heavy"].with_vwgts(random_vwgts(rng, 150, 2))
        part = bisection_start(rng, 150, "lopsided")
        targets = target_weights(g.total_vwgt, np.array([0.35, 0.65]))
        options = PartitionOptions(seed=0, fm_passes=12)
        assert assert_same_fm_refine(g, part, targets, options) > 0


class TestFitsMatchesMoveKeepsFeasible:
    @pytest.mark.parametrize("ncon", [1, 2, 3])
    def test_random_weights_and_the_bound_itself(self, ncon):
        rng = np.random.default_rng(ncon)
        for case in range(40):
            pwgts = rng.integers(0, 60, size=(2, ncon))
            if case % 4 == 0:
                pwgts[:, -1] = 0  # zero-total constraint
            targets = target_weights(
                pwgts.sum(axis=0), np.array([0.5, 0.5])
            )
            ubfactor = (1.05, 1.5, 2.0)[case % 3]
            tracker = BalanceTracker(pwgts, targets, ubfactor)
            allowed = targets * ubfactor
            for dst in (0, 1):
                rows = rng.integers(0, 9, size=(6, ncon)).tolist()
                # lands exactly on the bound where the bound is integral
                rows.append(
                    np.maximum(np.floor(allowed[dst]) - pwgts[dst], 0)
                    .astype(np.int64)
                    .tolist()
                )
                for vw in rows:
                    assert tracker.fits(dst, vw) == ref.move_keeps_feasible(
                        pwgts, np.asarray(vw), 1 - dst, dst, targets, ubfactor
                    )

    def test_on_the_bound_fits_and_one_more_does_not(self):
        targets = np.array([[50.0], [50.0]])
        pwgts = np.array([[40], [60]])
        tracker = BalanceTracker(pwgts, targets, 1.5)  # bound 75
        for w, fits in ((15, True), (16, False)):
            assert tracker.fits(1, [w]) is fits
            assert ref.move_keeps_feasible(
                pwgts, np.array([w]), 0, 1, targets, 1.5
            ) is fits


# ----------------------------------------------------------------------
# k-way loops
# ----------------------------------------------------------------------


def assert_same_kway(new_fn, ref_fn, graph, part, k, seed=0, **fields):
    """Returns ``(n_changed, rng_draws_happened)``; ``fields`` are
    further :class:`PartitionOptions` fields."""
    rng_ref, rng_new = (np.random.default_rng(seed) for _ in range(2))
    fresh = np.random.default_rng(seed).bit_generator.state
    exp = ref_fn(
        graph, part.copy(), k, PartitionOptions(seed=rng_ref, **fields)
    )
    got = new_fn(
        graph, part.copy(), k, PartitionOptions(seed=rng_new, **fields)
    )
    np.testing.assert_array_equal(got, exp)
    assert got.dtype == exp.dtype
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    return (
        int(np.count_nonzero(got != part)),
        rng_new.bit_generator.state != fresh,
    )


class TestKwayLoopsMatchReference:
    @pytest.mark.parametrize("name", sorted(ZOO))
    @pytest.mark.parametrize("ncon", [1, 2, 3])
    def test_kway_fm_refine(self, name, ncon):
        graph = ZOO[name]
        n = graph.num_vertices
        moved = 0
        for k in (2, 5, 13):
            rng = np.random.default_rng(10 * ncon + k)
            g = graph.with_vwgts(
                random_vwgts(rng, n, ncon, zero_column=ncon > 1 and k == 5)
            )
            moved += assert_same_kway(
                kway_fm_refine, ref.kway_fm_refine, g, kway_start(rng, n, k), k
            )[0]
        if graph.num_edges:
            assert moved > 0

    @pytest.mark.parametrize("name", sorted(ZOO))
    @pytest.mark.parametrize("ncon", [1, 2, 3])
    def test_greedy_kway_refine(self, name, ncon):
        graph = ZOO[name]
        n = graph.num_vertices
        moved = 0
        for k in (2, 5, 13):
            rng = np.random.default_rng(20 * ncon + k)
            g = graph.with_vwgts(
                random_vwgts(rng, n, ncon, zero_column=ncon > 1 and k == 5)
            )
            changed, drew = assert_same_kway(
                greedy_kway_refine, ref.greedy_kway_refine,
                g, kway_start(rng, n, k), k, seed=k,
            )
            moved += changed
            # the boundary shuffle consumed the same draws
            assert drew == bool(graph.num_edges)
        if graph.num_edges:
            assert moved > 0

    def test_pass_cap(self):
        rng = np.random.default_rng(4)
        g = ZOO["grid-ties"].with_vwgts(random_vwgts(rng, 99, 2))
        part = kway_start(rng, 99, 3)
        for passes in (1, 2):
            assert_same_kway(
                kway_fm_refine, ref.kway_fm_refine, g, part, 3,
                kway_passes=passes,
            )


# ----------------------------------------------------------------------
# greedy graph growing
# ----------------------------------------------------------------------


class TestGraphGrowingMatchesReference:
    @pytest.mark.parametrize("name", sorted(ZOO))
    @pytest.mark.parametrize("ncon", [1, 2, 3])
    def test_every_rule_and_seed_vertex(self, name, ncon):
        graph = ZOO[name]
        n = graph.num_vertices
        rng = np.random.default_rng(ncon)
        g = graph.with_vwgts(random_vwgts(rng, n, ncon, zero_column=ncon == 3))
        for frac0 in (0.5, 0.3, 0.9):
            for seed_vertex in (0, n // 2, n - 1):
                for constraint in range(-1, ncon):
                    exp = ref.greedy_graph_growing(
                        g, frac0, seed_vertex, constraint
                    )
                    got = greedy_graph_growing(
                        g, frac0, seed_vertex, constraint
                    )
                    assert got.dtype == exp.dtype
                    np.testing.assert_array_equal(got, exp)

    def test_parallel_edges_and_a_self_loop(self):
        # a hand-built CSR (``validate`` rejects the self-loop, so no
        # builder makes it): 0–1 twice with unequal weights, so the
        # first push of the pair carries a partial gain, and a
        # self-loop on 3, which only ever counts against absorbing 3
        edges = [(0, 1, 2), (0, 1, 5), (1, 2, 1), (2, 3, 4), (3, 3, 3),
                 (3, 4, 1), (4, 5, 2), (5, 0, 1), (1, 4, 3), (2, 5, 2)]
        rows = [[] for _ in range(6)]
        for a, b, w in edges:
            rows[a].append((b, w))
            if a != b:
                rows[b].append((a, w))
        g = CSRGraph(
            xadj=np.cumsum([0] + [len(r) for r in rows]),
            adjncy=[u for r in rows for u, _ in r],
            adjwgt=[w for r in rows for _, w in r],
            vwgts=[[3, 0], [1, 2], [2, 2], [1, 4], [4, 1], [2, 3]],
        )
        for frac0 in (0.3, 0.5, 0.8):
            for seed_vertex in range(6):
                for constraint in (-1, 0, 1):
                    exp = ref.greedy_graph_growing(
                        g, frac0, seed_vertex, constraint
                    )
                    got = greedy_graph_growing(
                        g, frac0, seed_vertex, constraint
                    )
                    np.testing.assert_array_equal(got, exp)

    def test_all_zero_weights_stop_at_once(self):
        g = ZOO["grid-unit"].with_vwgts(np.zeros((99, 2), dtype=np.int64))
        for constraint in (-1, 0, 1):
            exp = ref.greedy_graph_growing(g, 0.5, 3, constraint)
            got = greedy_graph_growing(g, 0.5, 3, constraint)
            np.testing.assert_array_equal(got, exp)
            assert got.all()  # nothing was grown

    def test_initial_bisection_draws_the_same_seeds(self):
        g = ZOO["geometric-heavy"]
        rng_a, rng_b = (np.random.default_rng(8) for _ in range(2))
        for a, b in zip(
            initial_bisection(g, 0.4, 5, seed=rng_a),
            initial_bisection(g, 0.4, 5, seed=rng_b),
        ):
            np.testing.assert_array_equal(a, b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


# ----------------------------------------------------------------------
# handshake matching
# ----------------------------------------------------------------------


def live_propose(graph, match, prio):
    """The library's ``_propose`` on the entries the oracle's mask
    keeps, as the oracle's ``proposal[n]`` array (-1: no candidate)."""
    edges = (graph.row_index, graph.adjncy, graph.adjwgt)
    proposers, proposed = matching._propose(matching._live(match, edges), prio)
    assert (np.diff(proposers) > 0).all()
    proposal = np.full(graph.num_vertices, -1, dtype=np.int64)
    proposal[proposers] = proposed
    return proposal


def assert_same_matching(graph, seed, rounds=4):
    rng_ref, rng_new = (np.random.default_rng(seed) for _ in range(2))
    exp_cmap, exp_n = ref.heavy_edge_matching(graph, rounds, seed=rng_ref)
    got_cmap, got_n = matching.heavy_edge_matching(graph, rounds, seed=rng_new)
    assert got_n == exp_n
    assert got_cmap.dtype == exp_cmap.dtype
    np.testing.assert_array_equal(got_cmap, exp_cmap)
    # one ``rng.random(n)`` per round, the round that breaks included
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    return got_n


class TestMatchingMatchesReference:
    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_heavy_edge_matching(self, name):
        graph = ZOO[name]
        for seed in range(4):
            for rounds in (1, 4, 9):
                n_coarse = assert_same_matching(graph, seed, rounds)
        if graph.num_edges:
            assert n_coarse < graph.num_vertices
        else:
            assert n_coarse == graph.num_vertices

    @pytest.mark.parametrize("name", sorted(ZOO))
    @pytest.mark.parametrize("levels", [1, 3, 25])
    def test_propose_with_duplicate_priorities(self, name, levels):
        # ``levels`` distinct priorities over the whole graph: with one,
        # every equal-weight choice is decided by CSR order alone
        graph = ZOO[name]
        n = graph.num_vertices
        rng = np.random.default_rng(levels)
        for trial in range(6):
            prio = rng.integers(0, levels, size=n) / levels
            match = np.full(n, -1, dtype=np.int64)
            if trial % 2:  # some vertices already matched
                taken = rng.permutation(n)[: n // 3]
                match[taken] = taken
            exp = ref._propose(graph, match, prio)
            got = live_propose(graph, match, prio)
            assert got.dtype == exp.dtype
            np.testing.assert_array_equal(got, exp)

    def test_all_matched_proposes_nothing(self):
        graph = ZOO["grid-unit"]
        match = np.arange(99, dtype=np.int64)
        got = live_propose(graph, match, np.zeros(99))
        np.testing.assert_array_equal(got, ref._propose(graph, match, np.zeros(99)))
        assert (got == -1).all()

    @pytest.mark.parametrize("seed", range(6))
    def test_compaction_through_the_round_that_breaks(self, seed):
        # a long path stalls on unmatched singletons well before 30
        # rounds: every round compacts the live entries, and the round
        # that finds no mutual proposal still draws its priorities
        graph = from_edge_list(
            60, np.column_stack((np.arange(59), np.arange(1, 60)))
        )
        rounds = 30
        rng_ref = np.random.default_rng(seed)
        ref.heavy_edge_matching(graph, rounds, seed=rng_ref)
        assert_same_matching(graph, seed, rounds)
        draws = np.random.default_rng(seed)
        states = []
        for _ in range(rounds):
            draws.random(60)
            states.append(draws.bit_generator.state)
        ran = states.index(rng_ref.bit_generator.state) + 1
        assert 3 <= ran < rounds  # several compactions, then a break


# ----------------------------------------------------------------------
# Hypothesis: small arbitrary graphs through every loop
# ----------------------------------------------------------------------


@st.composite
def weighted_graphs(draw):
    """A random multigraph edge list merged by ``from_edge_list`` (so
    rows are out of order and some vertices isolated), few distinct
    edge weights, 1–3 constraints with zeros."""
    n = draw(st.integers(2, 26))
    m = draw(st.integers(0, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = rng.integers(0, n, size=(m, 2))
    high = draw(st.sampled_from([1, 2, 7]))
    graph = from_edge_list(
        n, edges, weights=rng.integers(1, high + 1, size=m)
    )
    ncon = draw(st.integers(1, 3))
    vw = random_vwgts(rng, n, ncon, zero_column=draw(st.booleans()))
    return graph.with_vwgts(vw), rng


class TestHypothesisGraphs:
    @given(weighted_graphs(), st.sampled_from([0.5, 0.25, 0.7]))
    @settings(max_examples=60, deadline=None)
    def test_fm(self, drawn, frac0):
        graph, rng = drawn
        part = rng.integers(0, 2, size=graph.num_vertices).astype(np.int64)
        targets = target_weights(
            graph.total_vwgt, np.array([frac0, 1.0 - frac0])
        )
        options = PartitionOptions(seed=0, fm_neg_moves=int(rng.integers(1, 9)))
        assert_same_fm_pass(graph, part, targets, options)
        assert_same_rebalance(
            graph, part, targets, 1.05, graph.num_vertices
        )
        assert_same_fm_refine(graph, part, targets, options)

    @given(weighted_graphs(), st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_kway_loops(self, drawn, k):
        graph, rng = drawn
        part = rng.integers(0, k, size=graph.num_vertices).astype(np.int64)
        assert_same_kway(kway_fm_refine, ref.kway_fm_refine, graph, part, k)
        assert_same_kway(
            greedy_kway_refine, ref.greedy_kway_refine, graph, part, k
        )

    @given(weighted_graphs(), st.sampled_from([0.5, 0.2]))
    @settings(max_examples=60, deadline=None)
    def test_growing_and_matching(self, drawn, frac0):
        graph, rng = drawn
        n = graph.num_vertices
        for constraint in range(-1, graph.ncon):
            seed_vertex = int(rng.integers(0, n))
            np.testing.assert_array_equal(
                greedy_graph_growing(graph, frac0, seed_vertex, constraint),
                ref.greedy_graph_growing(graph, frac0, seed_vertex, constraint),
            )
        assert_same_matching(graph, int(rng.integers(0, 100)))
        prio = rng.integers(0, 3, size=n) / 3.0
        match = np.full(n, -1, dtype=np.int64)
        np.testing.assert_array_equal(
            live_propose(graph, match, prio),
            ref._propose(graph, match, prio),
        )


# ----------------------------------------------------------------------
# the array passes in front of the k-way loops
# ----------------------------------------------------------------------


class TestGreedySkipsOnlyWhatCannotMove:
    def test_a_skipped_vertex_moves_after_its_neighbour(self):
        # vertex 0 starts at gain -1 (skipped); once vertex 2 moves to
        # partition 1 it is at +1 and must move in the same pass
        graph = from_edge_list(
            6,
            np.array([[0, 1], [0, 2], [0, 3], [2, 4], [2, 5], [3, 4], [4, 5]]),
            weights=np.array([2, 1, 2, 2, 2, 5, 5]),
        )
        part = np.array([0, 0, 0, 1, 1, 1])
        moved_in_one_pass = []
        for seed in range(8):
            # an int seed: each call draws from a fresh generator
            options = PartitionOptions(seed=seed, kway_passes=1, ubfactor=2.0)
            exp = ref.greedy_kway_refine(graph, part.copy(), 2, options)
            got = greedy_kway_refine(graph, part.copy(), 2, options)
            np.testing.assert_array_equal(got, exp)
            moved_in_one_pass.append(int(got[0]))
        assert 0 < sum(moved_in_one_pass) < 8  # depends on the visit order

    def test_a_zero_gain_move_that_helps_balance(self):
        # partition 0 holds five of six unit vertices; vertex 1 sits at
        # gain 0 between the two and is the only move that fits
        graph = from_edge_list(
            6, np.array([[0, 1], [1, 5], [0, 2], [2, 3], [3, 4]])
        )
        part = np.array([0, 0, 0, 0, 0, 1])
        options = PartitionOptions(seed=0, kway_passes=1, ubfactor=1.5)
        exp = ref.greedy_kway_refine(graph, part.copy(), 2, options)
        got = greedy_kway_refine(graph, part.copy(), 2, options)
        np.testing.assert_array_equal(got, exp)
        assert got.tolist() == [0, 1, 0, 0, 0, 1]


@st.composite
def lumpy_kway_states(draw):
    """A graph, a k-way labelling and a tracker shaped like the leaf
    graph ``G'``: vertex weights spanning orders of magnitude, many
    zeros, heavy edges, optionally a zero-total constraint, labels piled
    onto partition 0 and a tight tolerance, so that many destinations
    do not fit."""
    graph, rng = draw(weighted_graphs())
    n, ncon = graph.num_vertices, graph.ncon
    k = draw(st.integers(2, 7))
    scale = 10 ** rng.integers(0, 4, size=(n, ncon))
    vw = rng.integers(0, 4, size=(n, ncon)) * scale
    if draw(st.booleans()):
        vw[:, -1] = 0
    graph = graph.with_vwgts(vw).with_adjwgt(graph.adjwgt * 37)
    part = rng.integers(0, k, size=n).astype(np.int64)
    part[rng.permutation(n)[: n // 2]] = 0
    fracs = rng.dirichlet(np.ones(k))
    targets = target_weights(graph.total_vwgt, fracs)
    ubfactor = draw(st.sampled_from([1.01, 1.05, 1.5]))
    tracker = BalanceTracker(partition_weights(graph, part, k), targets, ubfactor)
    return graph, part, k, tracker


class TestKwayFMFirstBatch:
    @given(lumpy_kway_states())
    @settings(max_examples=150, deadline=None)
    def test_matches_best_move_per_vertex(self, state):
        graph, part, k, tracker = state
        vwgts = graph.vwgts.tolist()
        exp = []
        for v in boundary_vertices(graph, part).tolist():
            mv = ref._best_move(graph, part, tracker, vwgts, v)
            if mv is not None:
                exp.append((v, mv[0]))
        got = refine_kway_fm._first_batch(graph, part, k, tracker)
        assert got == exp
        assert all(type(v) is int and type(g) is int for v, g in got)

    def test_infeasible_destinations_leave_the_batch(self):
        # every move into partition 1 overloads it: only vertices with
        # another feasible destination are queued
        graph = grid_graph(6, 5)
        part = np.repeat(np.arange(3), 10).astype(np.int64)
        targets = target_weights(graph.total_vwgt, np.array([0.4, 0.2, 0.4]))
        pw = partition_weights(graph, part, 3)
        tracker = BalanceTracker(pw, targets, 1.05)
        assert not tracker.fits(1, [1])
        vwgts = graph.vwgts.tolist()
        exp = [
            (v, mv[0])
            for v in boundary_vertices(graph, part).tolist()
            if (mv := ref._best_move(graph, part, tracker, vwgts, v))
        ]
        got = refine_kway_fm._first_batch(graph, part, 3, tracker)
        assert got == exp
        assert 0 < len(got) < len(boundary_vertices(graph, part))


class TestMoveGainCells:
    @given(weighted_graphs(), st.integers(2, 6))
    @settings(max_examples=80, deadline=None)
    def test_matches_neighbor_partition_weights(self, drawn, k):
        graph, rng = drawn
        part = rng.integers(0, k, size=graph.num_vertices).astype(np.int64)
        vertices = np.flatnonzero(rng.random(graph.num_vertices) < 0.6)
        owner, dst, gain = move_gain_cells(graph, part, vertices, k)
        labels = part.tolist()
        exp = []
        for i, v in enumerate(vertices.tolist()):
            conn = neighbor_partition_weights(graph.lists, labels, v)
            own = conn.get(labels[v], 0)
            exp += sorted(
                (i, p, w - own) for p, w in conn.items() if p != labels[v]
            )
        assert list(zip(owner.tolist(), dst.tolist(), gain.tolist())) == exp
        assert owner.dtype == dst.dtype == gain.dtype == np.int64


# ----------------------------------------------------------------------
# the queue: a heapified batch pops as sequential inserts do
# ----------------------------------------------------------------------


class TestBatchQueueMatchesSequentialInserts:
    @given(
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(-4, 4)), max_size=40
        ),
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(-4, 4)), max_size=25
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_same_pops(self, batch, later):
        new, old = MaxPQ(batch), ref.MaxPQ()
        for item, priority in batch:  # duplicates: the last insert counts
            old.insert(item, float(priority))
        assert len(new) == len(old)
        for step, (item, priority) in enumerate(later):
            if step % 3 == 2:
                assert new.pop() == old.pop()
            elif step % 7 == 5:
                new.remove(item)
                old.remove(item)
            else:
                new.insert(item, priority)
                old.insert(item, float(priority))
            assert new.peek() == old.peek()
        while len(old):
            assert new.pop() == old.pop()
        assert new.pop() is None and old.pop() is None
