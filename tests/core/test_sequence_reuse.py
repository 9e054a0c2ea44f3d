"""The step driver carries the contact graph and the descriptor tree
from one snapshot to the next; every step must still equal
from-scratch recomputation.

There is no switch that turns the reuse off, so the oracles are the
pure functions: ``build_contact_graph`` for the graph (array for
array — the CSR row order feeds partitioner tie-breaks),
``induce_pure_tree`` without a memo for the tree (node for node, plus
``leaf_of_point``), a recount for ``fe_comm`` / imbalance, and the
brute-force ``serial_candidate_pairs`` — which knows nothing of trees
or plans — for the candidates, so a wrongly grafted subtree cannot
hide behind "equals from-scratch" if both were wrong.

Scale: ``ImpactConfig()`` — 100 snapshots, 5,325 nodes, k = 8, pad
0.1, repartition every 10 — the ``steps_paper`` workload's shape at
the default resolution. The drivers take the default execution
backend, so the CI jobs that set ``$REPRO_BACKEND`` (process, tcp,
a process pool with a kill plan) run these sequences on theirs.
"""

import io

import numpy as np
import pytest

from repro.core.checkpoint import (
    dump_driver_bytes,
    load_driver,
    restore_driver_state,
)
from repro.core.contact_search import (
    face_owner_partition,
    serial_candidate_pairs,
)
from repro.core.driver import ContactStepDriver
from repro.core.mcml_dt import MCMLDTParams
from repro.core.update import UpdateStrategy
from repro.core.weights import ContactGraphBuilder, build_contact_graph
from repro.dtree.induction import induce_pure_tree
from repro.dtree.query import tree_filter_search
from repro.dtree.tree import TreeNode
from repro.geometry.bbox import element_bboxes
from repro.graph.digest import digest_arrays
from repro.graph.metrics import load_imbalance
from repro.metrics.comm import fe_comm
from repro.obs.tracer import Tracer
from repro.sim.projectile import ImpactConfig
from repro.sim.sequence import simulate_impact
from tests.graph.reference_build import CSR_ARRAYS, assert_same_arrays

K = 8
PAD = 0.1
PERIOD = 10

#: recorded when the test was written. At this resolution the
#: projectile carries 28 % of the 818 contact points and every one of
#: them moves every step, so 40 % of the tree nodes are grafted; at
#: ``ImpactConfig.paper_scale()`` (15.5 % of 2,960 move) it is 70 %, and
#: the graph is reused in 88 steps of 100 (docs/ALGORITHMS.md).
GRAPH_REUSED = 93
TREE_NODES = 11978
TREE_NODES_REUSED = 4848


@pytest.fixture(scope="module")
def seq():
    return simulate_impact(ImpactConfig())


@pytest.fixture(scope="module")
def fitted(seq):
    """Checkpoint of a driver fitted on the first snapshot; every run
    below starts from it, so they share one fit."""
    driver = new_driver(UpdateStrategy.HYBRID).initialize(seq[0])
    return dump_driver_bytes(driver)


def new_driver(strategy, fitted=None, **kwargs):
    driver = ContactStepDriver(
        K, MCMLDTParams(pad=PAD), strategy=strategy,
        repartition_period=PERIOD, **kwargs,
    )
    if fitted is not None:
        restore_driver_state(driver, io.BytesIO(fitted))
    return driver


def spy(obj, name, seen):
    """Record what ``obj.name(...)`` returns during a step."""
    inner = getattr(obj, name)

    def recording(*args, **kwargs):
        seen[name] = inner(*args, **kwargs)
        return seen[name]

    setattr(obj, name, recording)


def watched(driver):
    """``driver`` with its graph and descriptor calls recorded."""
    seen = {}
    spy(driver.graphs, "build", seen)
    spy(driver.partitioner, "build_descriptors", seen)
    return seen


def padded_boxes(snap):
    boxes = element_bboxes(snap.mesh.nodes, snap.contact_faces)
    boxes[:, 0] -= PAD
    boxes[:, 1] += PAD
    return boxes


def assert_step_is_from_scratch(driver, seen, snap, result):
    """One driver step against recomputation from the snapshot and
    the labels the step ended with."""
    part = driver.partitioner.part
    cn = snap.contact_nodes
    coords = snap.mesh.nodes[cn]

    graph = build_contact_graph(snap, driver.params.contact_edge_weight)
    assert_same_arrays(seen["build"], graph)

    tree, leaf_of = seen["build_descriptors"]
    ref_tree, ref_leaf_of = induce_pure_tree(coords, part[cn], K)
    for field in TreeNode._fields:  # every node field
        assert np.array_equal(getattr(tree, field), getattr(ref_tree, field))
    assert np.array_equal(leaf_of, ref_leaf_of)
    assert result.nt_nodes == ref_tree.n_nodes

    boxes = padded_boxes(snap)
    plan = tree_filter_search(
        ref_tree, boxes, face_owner_partition(part, snap.contact_faces), K
    )
    assert result.n_remote == plan.n_remote

    assert result.fe_comm == fe_comm(graph, part)
    imbalance = load_imbalance(graph, part, K)
    assert result.imbalance.dtype == imbalance.dtype
    assert np.array_equal(result.imbalance, imbalance)

    # no missed contact: the brute-force search, independent of the
    # tree and the plan
    assert result.candidates == serial_candidate_pairs(
        boxes, snap.contact_faces, coords, cn
    )


def outcome(driver, results):
    """What two runs over the same snapshots must agree on."""
    return (
        digest_arrays({"part": driver.partitioner.part}),
        driver.ledger.phases,
        driver.ledger.sent_by_rank,
        driver.ledger.received_by_rank,
        [r.candidates for r in results],
    )


@pytest.fixture(scope="module")
def hybrid_run(seq, fitted):
    """The uninterrupted HYBRID run, traced, checked step by step."""
    tracer = Tracer()
    driver = new_driver(UpdateStrategy.HYBRID, fitted, tracer=tracer)
    seen = watched(driver)
    results = []
    for snap in seq:
        results.append(driver.step(snap))
        assert_step_is_from_scratch(driver, seen, snap, results[-1])
    return driver, results, tracer.finish()


class TestEveryStepEqualsFromScratch:
    def test_hybrid(self, seq, hybrid_run):
        _, results, _ = hybrid_run
        assert len(results) == len(seq) == 100
        assert seq.num_nodes == 5325
        assert sum(r.repartitioned for r in results) == 10

    def test_repartition_every_step(self, seq, fitted):
        driver = new_driver(UpdateStrategy.REPARTITION, fitted)
        seen = watched(driver)
        moved = 0
        for snap in seq:
            result = driver.step(snap)
            assert_step_is_from_scratch(driver, seen, snap, result)
            moved += result.n_moved
        assert moved > 0  # labels did change under the memo

    def test_out_of_order_and_repeated_snapshots(self, seq, fitted):
        rng = np.random.default_rng(5)
        order = []
        for i in rng.integers(0, len(seq), size=24):
            # every third draw is stepped twice in a row
            order += [i] * (2 if len(order) % 3 == 0 else 1)
        driver = new_driver(UpdateStrategy.HYBRID, fitted)
        seen = watched(driver)
        for i in order:
            result = driver.step(seq[int(i)])
            assert_step_is_from_scratch(driver, seen, seq[int(i)], result)

    def test_labels_replaced_or_edited_between_steps(self, seq, fitted):
        driver = new_driver(UpdateStrategy.DESCRIPTOR_ONLY, fitted)
        seen = watched(driver)
        pt = driver.partitioner
        rng = np.random.default_rng(11)
        for snap in seq.snapshots[40:64]:
            if snap.step % 6 == 0:
                # a new vector: a band of nodes handed to another part
                moved = rng.integers(0, seq.num_nodes, size=200)
                pt.part = pt.part.copy()
                pt.part[moved] = (pt.part[moved] + 1) % K
            elif snap.step % 6 == 3:
                # the same vector, edited in place
                pt.part[rng.integers(0, seq.num_nodes, size=50)] = 0
            result = driver.step(snap)
            assert_step_is_from_scratch(driver, seen, snap, result)


class TestRestoreMidSequence:
    CUT = 34  # HYBRID is 4 steps into a period here

    def test_load_driver_continues_the_same_run(self, seq, fitted, hybrid_run):
        reference, ref_results, _ = hybrid_run
        first = new_driver(UpdateStrategy.HYBRID, fitted)
        head = [first.step(s) for s in seq.snapshots[:self.CUT]]
        blob = dump_driver_bytes(first)
        with np.load(io.BytesIO(blob)) as data:
            assert sorted(data.files) == ["meta", "part"]  # no memo in it

        second = load_driver(io.BytesIO(blob))  # cold memos
        seen = watched(second)
        tail = []
        for snap in seq.snapshots[self.CUT:]:
            tail.append(second.step(snap))
            assert_step_is_from_scratch(second, seen, snap, tail[-1])
        assert outcome(second, head + tail) == outcome(reference, ref_results)

    def test_restore_into_a_driver_that_ran_ahead(
        self, seq, fitted, hybrid_run
    ):
        """``restore_driver_state`` keeps the live driver's memos: they
        hold a later snapshot's graph and tree, under labels a
        repartition has since changed."""
        reference, ref_results, _ = hybrid_run
        driver = new_driver(UpdateStrategy.HYBRID, fitted)
        head = [driver.step(s) for s in seq.snapshots[:self.CUT]]
        blob = dump_driver_bytes(driver)
        ahead = [driver.step(s) for s in seq.snapshots[self.CUT:self.CUT + 9]]
        assert any(r.repartitioned for r in ahead)

        restore_driver_state(driver, io.BytesIO(blob))
        seen = watched(driver)
        tail = []
        for snap in seq.snapshots[self.CUT:]:
            tail.append(driver.step(snap))
            assert_step_is_from_scratch(driver, seen, snap, tail[-1])
        assert outcome(driver, head + tail) == outcome(reference, ref_results)


class TestReuseIsVisible:
    """Counts, not timings: a refactor that silently turns every step
    into a miss fails here instead of waiting for a bench run."""

    def test_exact_counters_of_the_hybrid_run(self, hybrid_run):
        _, results, root = hybrid_run
        graph = root.find("step/build-graph")
        induce = root.find("step/dtree-induce")
        assert graph.n_calls == induce.n_calls == 100
        # the graph is rebuilt on the first step and on the 6 steps
        # whose snapshot lost elements to erosion
        assert graph.counters["graph_reused"] == GRAPH_REUSED
        assert induce.counters["tree_nodes"] == sum(
            r.nt_nodes for r in results
        )
        assert induce.counters["tree_nodes"] == TREE_NODES
        assert induce.counters["tree_nodes_reused"] == TREE_NODES_REUSED

    def test_reused_graph_is_the_same_read_only_object(self, seq, fitted):
        driver = new_driver(UpdateStrategy.HYBRID, fitted)
        seen = watched(driver)
        driver.step(seq[0])
        graph = seen["build"]
        before = digest_arrays({a: getattr(graph, a) for a in CSR_ARRAYS})
        for name in CSR_ARRAYS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(graph, name)[0] = 7
        for snap in seq.snapshots[1:4]:  # no erosion yet
            driver.step(snap)
            assert seen["build"] is graph
        after = digest_arrays({a: getattr(graph, a) for a in CSR_ARRAYS})
        assert after == before

    def test_builder_misses_on_any_key_change(self, seq):
        snap = seq[0]
        builder = ContactGraphBuilder()
        graph = builder.build(snap)
        assert builder.build(snap) is graph
        # a caller refilling its own arrays in place must still miss
        nodes = snap.contact_nodes
        kept = nodes.copy()
        try:
            nodes[:] = np.roll(nodes, 1)
            assert nodes.tolist() != kept.tolist()
            rolled = builder.build(snap)
            assert rolled is not graph
            assert_same_arrays(rolled, build_contact_graph(snap))
        finally:
            nodes[:] = kept
        assert builder.build(snap, contact_edge_weight=3) is not rolled
        assert_same_arrays(
            builder.build(snap, contact_edge_weight=3),
            build_contact_graph(snap, 3),
        )

    def test_measure_recounts_when_labels_change(self, seq):
        snap = seq[0]
        builder = ContactGraphBuilder()
        graph = builder.build(snap)
        part = np.arange(seq.num_nodes) % K
        comm, imbalance = builder.measure(part, K)
        assert comm == fe_comm(graph, part)
        imbalance[:] = -1.0  # the caller's copy, not the remembered one
        assert np.array_equal(
            builder.measure(part, K)[1], load_imbalance(graph, part, K)
        )
        part[:100] = 0  # edited in place
        assert builder.measure(part, K)[0] == fe_comm(graph, part)
        with pytest.raises(RuntimeError, match="build"):
            ContactGraphBuilder().measure(part, K)
