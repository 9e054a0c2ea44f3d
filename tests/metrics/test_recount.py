"""Every reported partition metric against a naive recount.

The program computes edge-cut, per-constraint load imbalance, FEComm,
NRemote and M2MComm with vectorised NumPy (``repro.graph.metrics``,
``repro.metrics``, the tree and bounding-box search filters).  The
oracles below recount each one from its definition with plain Python
loops — per edge, per point, per (element, leaf region) — so a defect
shared by the vectorised helpers cannot hide in a comparison of the
program with itself.  Default scene, step 0, k = 8 and 25, MCML+DT and
ML+RCB; compared with ``PartitionResult.diagnostics``, ``SearchPlan``,
the contact exchange's ledger, ``MLRCBPartitioner.m2m_comm_now()`` and
the service's result document.  A whole MCML+DT sequence is recounted
too: every step of a hybrid ``ContactStepDriver`` run, so steps whose
tree grafts memoised subtrees and steps after a diffusion repartition
are both checked.
"""

import asyncio
import itertools
from collections import Counter

import numpy as np
import pytest

from repro.core.contact_search import parallel_contact_search
from repro.core.driver import ContactStepDriver
from repro.core.mcml_dt import MCMLDTParams, MCMLDTPartitioner
from repro.core.ml_rcb import MLRCBParams, MLRCBPartitioner
from repro.core.weights import build_contact_graph
from repro.graph.metrics import load_imbalance
from repro.mesh.nodal_graph import nodal_graph
from repro.metrics import fe_comm
from repro.obs.tracer import Tracer
from repro.runtime.ledger import CommLedger
from repro.service.engine import EngineConfig, ServiceEngine
from repro.service.schemas import SCHEMA_VERSION
from repro.sim.projectile import ImpactConfig
from repro.sim.sequence import simulate_impact
from repro.core.update import UpdateStrategy

PAD = 0.1
CASES = [("mcml-dt", 8), ("mcml-dt", 25), ("ml-rcb", 8), ("ml-rcb", 25)]


# ----------------------------------------------------------------------
# naive oracles
# ----------------------------------------------------------------------


def neighbours(graph):
    """``(v, u, weight)`` for every adjacency entry, in CSR order."""
    xadj = graph.xadj.tolist()
    adjncy = graph.adjncy.tolist()
    adjwgt = graph.adjwgt.tolist()
    for v in range(graph.num_vertices):
        for j in range(xadj[v], xadj[v + 1]):
            yield v, adjncy[j], adjwgt[j]


def naive_edge_cut(graph, part):
    """Weight of the edges whose ends lie in different parts, each
    undirected edge counted once (from its lower end)."""
    part = part.tolist()
    return sum(w for v, u, w in neighbours(graph)
               if v < u and part[v] != part[u])


def naive_imbalance(graph, part, k):
    """Per constraint: the heaviest part over the average part."""
    vwgts = graph.vwgts.tolist()
    ncon = len(vwgts[0])
    loads = [[0] * ncon for _ in range(k)]
    for v, p in enumerate(part.tolist()):
        for j in range(ncon):
            loads[p][j] += vwgts[v][j]
    out = []
    for j in range(ncon):
        total = sum(loads[p][j] for p in range(k))
        out.append(max(loads[p][j] for p in range(k)) / (total / k)
                   if total > 0 else 1.0)
    return out


def naive_fe_comm(graph, part):
    """Distinct (vertex, remote part among its neighbours) pairs."""
    part = part.tolist()
    pairs = set()
    for v, u, _ in neighbours(graph):
        if part[u] != part[v]:
            pairs.add((v, part[u]))
    return len(pairs)


def naive_boxes(nodes, faces, pad):
    """Per surface element: ``(lo, hi)`` over its nodes, grown by
    ``pad``."""
    out = []
    for face in faces.tolist():
        coords = [nodes[n] for n in face]
        lo = [min(c[a] for c in coords) - pad for a in range(3)]
        hi = [max(c[a] for c in coords) + pad for a in range(3)]
        out.append((lo, hi))
    return out


def naive_owner(faces, label_of_node):
    """Per element: its nodes' most frequent label, the smallest on a
    tie."""
    owners = []
    for face in faces.tolist():
        counts = Counter(label_of_node[n] for n in face)
        top = max(counts.values())
        owners.append(min(p for p, c in counts.items() if c == top))
    return owners


def leaf_regions(tree):
    """Per leaf: ``(constraints, label, pure)``, the constraints read
    off its root-to-leaf path — ``(dim, t, "left")`` for ``x <= t``,
    ``(dim, t, "right")`` for ``x > t``."""
    label, pure = tree.label.tolist(), tree.is_pure.tolist()
    dim, threshold = tree.dim.tolist(), tree.threshold.tolist()
    left, right = tree.left.tolist(), tree.right.tolist()
    regions = []
    stack = [(0, [])]
    while stack:
        node_id, path = stack.pop()
        if left[node_id] < 0:
            regions.append((path, label[node_id], pure[node_id]))
            continue
        cut = (dim[node_id], threshold[node_id])
        stack.append((left[node_id], path + [cut + ("left",)]))
        stack.append((right[node_id], path + [cut + ("right",)]))
    return regions


def box_meets_region(box, constraints):
    """A closed box meets a leaf region when, for every constraint,
    part of the box lies on the constraint's side."""
    lo, hi = box
    for dim, t, side in constraints:
        if side == "left" and not lo[dim] <= t:
            return False
        if side == "right" and not hi[dim] > t:
            return False
    return True


def naive_n_remote_tree(tree, boxes, owners, k):
    """MCML+DT: an element goes to the label of every pure leaf region
    its box meets, to every part if it meets an impure one, never to
    its own part."""
    regions = leaf_regions(tree)
    total = 0
    for box, owner in zip(boxes, owners):
        dest = set()
        for constraints, label, pure in regions:
            if box_meets_region(box, constraints):
                dest |= {label} if pure else set(range(k))
        dest.discard(owner)
        total += len(dest)
    return total


def naive_n_remote_bbox(boxes, owners, points, labels, k):
    """ML+RCB: an element goes to every other part whose contact points'
    bounding box its box meets (closed boxes; empty parts meet
    nothing)."""
    sub = {}
    for point, p in zip(points.tolist(), labels.tolist()):
        lo, hi = sub.setdefault(p, (list(point), list(point)))
        for a in range(3):
            lo[a] = min(lo[a], point[a])
            hi[a] = max(hi[a], point[a])
    total = 0
    for (lo, hi), owner in zip(boxes, owners):
        for p, (slo, shi) in sub.items():
            if p != owner and all(
                lo[a] <= shi[a] and hi[a] >= slo[a] for a in range(3)
            ):
                total += 1
    return total


def max_agreement_dp(overlap):
    """Most points two labelings can agree on under a relabelling:
    exhaustive over assignments by a DP over subsets (k <= ~16)."""
    k = len(overlap)
    best = {0: 0}
    for row in range(k):
        nxt = {}
        for used, value in best.items():
            for col in range(k):
                if not used >> col & 1:
                    key = used | 1 << col
                    cand = value + overlap[row][col]
                    if cand > nxt.get(key, -1):
                        nxt[key] = cand
        best = nxt
    return best[(1 << k) - 1]


def max_agreement_hungarian(overlap):
    """The same maximum by the textbook O(k³) Hungarian method (rows →
    columns, potentials ``u``/``v``), for k too large to enumerate."""
    k = len(overlap)
    inf = float("inf")
    cost = [[-x for x in row] for row in overlap]
    u, v = [0] * (k + 1), [0] * (k + 1)
    match, way = [0] * (k + 1), [0] * (k + 1)
    for i in range(1, k + 1):
        match[0], j0 = i, 0
        minv, used = [inf] * (k + 1), [False] * (k + 1)
        while True:
            used[j0] = True
            i0, delta, j1 = match[j0], inf, 0
            for j in range(1, k + 1):
                if not used[j]:
                    cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(k + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    return sum(overlap[match[j] - 1][j - 1] for j in range(1, k + 1))


def naive_m2m(fe_labels, rcb_labels, k):
    """Points whose FE and (optimally relabelled) RCB parts differ."""
    overlap = [[0] * k for _ in range(k)]
    for p, q in zip(fe_labels.tolist(), rcb_labels.tolist()):
        overlap[p][q] += 1
    best = max_agreement_hungarian(overlap)
    if k <= 8:
        assert max_agreement_dp(overlap) == best
    return len(fe_labels) - best


# ----------------------------------------------------------------------
# the program's numbers
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def snapshot():
    return simulate_impact(ImpactConfig())[0]


@pytest.fixture(scope="module")
def service_documents():
    """The service's result document per case (one engine, real fits)."""
    n_steps = ImpactConfig().n_steps

    async def scenario():
        engine = ServiceEngine(EngineConfig(workers=2))
        await engine.start()
        try:
            jobs = [
                engine.submit({
                    "schema": SCHEMA_VERSION, "kind": "partition", "k": k,
                    "partitioner": name,
                    "source": {"kind": "impact", "n_steps": n_steps},
                })
                for name, k in CASES
            ]
            return {
                case: (await engine.wait(job.id, 300)).result
                for case, job in zip(CASES, jobs)
            }
        finally:
            await engine.stop()

    return asyncio.run(scenario())


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"{c[0]}-k{c[1]}")
def fitted(request, snapshot):
    name, k = request.param
    if name == "mcml-dt":
        partitioner = MCMLDTPartitioner(k, MCMLDTParams(pad=PAD))
        graph = build_contact_graph(
            snapshot, partitioner.params.contact_edge_weight
        )
    else:
        partitioner = MLRCBPartitioner(k, MLRCBParams(pad=PAD))
        vwgts = np.zeros((snapshot.mesh.num_nodes, 1), dtype=np.int64)
        vwgts[snapshot.mesh.used_nodes(), 0] = 1
        graph = nodal_graph(snapshot.mesh, vwgts=vwgts)
    result = partitioner.fit(snapshot)
    return request.param, partitioner, result, graph


class TestPartitionMetrics:
    def test_edge_cut(self, fitted):
        _, _, result, graph = fitted
        assert naive_edge_cut(graph, result.labels) == (
            result.diagnostics["edge_cut_final"]
        )

    def test_load_imbalance_per_constraint(self, fitted):
        (_, k), _, result, graph = fitted
        reported = np.asarray(result.diagnostics["imbalance_final"])
        assert reported.tolist() == naive_imbalance(graph, result.labels, k)
        assert len(reported) == graph.ncon

    def test_fe_comm(self, fitted, snapshot):
        _, _, result, graph = fitted
        unit = nodal_graph(snapshot.mesh)
        for g in (graph, unit):
            assert naive_fe_comm(g, result.labels) == fe_comm(
                g, result.labels
            )

    def test_service_document(self, fitted, service_documents):
        case, _, result, graph = fitted
        document = service_documents[case]
        labels = np.asarray(document["labels"])
        assert labels.tolist() == result.labels.tolist()
        diag = document["diagnostics"]
        assert diag["edge_cut_final"] == naive_edge_cut(graph, labels)
        assert diag["imbalance_final"] == naive_imbalance(
            graph, labels, case[1]
        )


class TestContactMetrics:
    def test_n_remote_and_the_exchange(self, fitted, snapshot):
        (name, k), partitioner, _, _ = fitted
        nodes = snapshot.mesh.nodes.tolist()
        faces = snapshot.contact_faces
        cn = snapshot.contact_nodes
        boxes = naive_boxes(nodes, faces, PAD)
        if name == "mcml-dt":
            tree, _ = partitioner.build_descriptors(snapshot)
            plan = partitioner.search_plan(snapshot, tree)
            part = partitioner.part.tolist()
            owners = naive_owner(faces, part)
            expected = naive_n_remote_tree(tree, boxes, owners, k)
            point_partition = partitioner.part[cn]
        else:
            plan = partitioner.search_plan(snapshot)
            rcb_of = dict(zip(cn.tolist(), partitioner.rcb_labels.tolist()))
            owners = naive_owner(faces, rcb_of)
            expected = naive_n_remote_bbox(
                boxes, owners, snapshot.mesh.nodes[cn],
                partitioner.rcb_labels, k,
            )
            point_partition = partitioner.rcb_labels
        assert plan.owner.tolist() == owners
        assert plan.n_remote == expected > 0
        _, ledger = parallel_contact_search(
            plan, np.asarray(boxes), faces, snapshot.mesh.nodes[cn], cn,
            point_partition, k, ledger=CommLedger(),
        )
        assert ledger.items("contact-exchange") == expected

    def test_m2m_comm(self, fitted):
        (name, k), partitioner, _, _ = fitted
        if name != "ml-rcb":
            pytest.skip("M2MComm is ML+RCB's cost; MCML+DT has one partition")
        fe = partitioner.part_fe[partitioner.contact_ids]
        expected = naive_m2m(fe, partitioner.rcb_labels, k)
        assert partitioner.m2m_comm_now() == expected > 0


def test_hungarian_oracle_matches_exhaustive_search():
    rng = np.random.default_rng(0)
    for k in (1, 2, 3, 5, 7):
        for _ in range(20):
            overlap = rng.integers(0, 9, (k, k)).tolist()
            brute = max(
                sum(overlap[r][perm[r]] for r in range(k))
                for perm in itertools.permutations(range(k))
            )
            assert max_agreement_hungarian(overlap) == brute
            assert max_agreement_dp(overlap) == brute


def test_imbalance_oracle_agrees_on_a_skewed_partition(snapshot):
    """The load-imbalance oracle on a deliberately bad partition (all
    but one vertex in part 0), where every constraint is far off."""
    graph = build_contact_graph(snapshot, 5)
    part = np.zeros(graph.num_vertices, dtype=np.int64)
    part[-1] = 3
    assert naive_imbalance(graph, part, 4) == load_imbalance(
        graph, part, 4
    ).tolist()


# ----------------------------------------------------------------------
# a whole sequence through the step driver
# ----------------------------------------------------------------------

SEQUENCE_K, SEQUENCE_STEPS, SEQUENCE_PERIOD = 8, 20, 5


@pytest.fixture(scope="module")
def hybrid_steps():
    """Per step of a hybrid run (period 5): the snapshot, its
    ``StepResult``, the descriptor tree the step searched with, the
    labels after the step and the items the step's contact exchange
    booked; plus the run's tracer report."""
    seq = simulate_impact(ImpactConfig(n_steps=SEQUENCE_STEPS))
    tracer = Tracer()
    driver = ContactStepDriver(
        SEQUENCE_K, MCMLDTParams(pad=PAD), strategy=UpdateStrategy.HYBRID,
        repartition_period=SEQUENCE_PERIOD, backend="serial", tracer=tracer,
    )
    pt = driver.partitioner
    trees = []
    build = pt.build_descriptors

    def recording(snapshot, tracer=None):
        tree, leaf_of = build(snapshot, tracer=tracer)
        trees.append(tree)
        return tree, leaf_of

    pt.build_descriptors = recording
    driver.initialize(seq[0])
    steps = []
    for snapshot in seq:
        before = driver.ledger.items("contact-exchange")
        result = driver.step(snapshot)
        steps.append((
            snapshot, result, trees[-1], pt.part.copy(),
            driver.ledger.items("contact-exchange") - before,
        ))
    return steps, tracer.finish()


class TestSequenceRecount:
    def test_the_run_grafts_and_repartitions(self, hybrid_steps):
        steps, report = hybrid_steps
        assert len(steps) == SEQUENCE_STEPS
        induce = report.find("step/dtree-induce")
        assert induce.counters["tree_nodes_reused"] > 0
        # the fit counts as the last repartition: steps 4, 9, 14, 19
        repartitioned = [r.step for _, r, _, _, _ in steps if r.repartitioned]
        assert repartitioned == list(
            range(SEQUENCE_PERIOD - 1, SEQUENCE_STEPS, SEQUENCE_PERIOD)
        )
        assert sum(r.n_moved for _, r, _, _, _ in steps) > 0

    def test_every_step_n_remote_and_exchange(self, hybrid_steps):
        steps, _ = hybrid_steps
        for snapshot, result, tree, part, exchanged in steps:
            nodes = snapshot.mesh.nodes.tolist()
            faces = snapshot.contact_faces
            boxes = naive_boxes(nodes, faces, PAD)
            owners = naive_owner(faces, part.tolist())
            expected = naive_n_remote_tree(tree, boxes, owners, SEQUENCE_K)
            assert expected > 0
            assert (result.n_remote, exchanged) == (expected, expected), (
                result.step
            )

    def test_every_step_fe_comm(self, hybrid_steps):
        steps, _ = hybrid_steps
        for snapshot, result, _, part, _ in steps:
            graph = build_contact_graph(
                snapshot, MCMLDTParams(pad=PAD).contact_edge_weight
            )
            assert result.fe_comm == naive_fe_comm(graph, part), result.step
