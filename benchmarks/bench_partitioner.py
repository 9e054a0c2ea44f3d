"""Supporting bench: the multilevel partitioner behaves like one.

Not a table in the paper, but every Table-1 number sits on top of the
partitioner, so its quality envelope is benchmarked explicitly: cut
growth with k on structured grids, balance under one and two
constraints, and coarsening throughput.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.build import grid_graph
from repro.graph.metrics import edge_cut, load_imbalance
from repro.partition.coarsen import coarsen
from repro.partition.kway import partition_kway
from repro.partition.matching import heavy_edge_matching

from .conftest import record, strong_options


@pytest.mark.parametrize("k", [4, 16, 64])
def test_partition_grid_quality(benchmark, k):
    """50×50 grid: cut should stay within a small factor of the ideal
    straight-cut tiling and balance within tolerance."""
    g = grid_graph(50, 50)
    opts = strong_options()

    part = benchmark.pedantic(
        lambda: partition_kway(g, k, opts), rounds=1, iterations=1
    )
    cut = edge_cut(g, part)
    imb = load_imbalance(g, part, k).max()
    # ideal tiling of a 50x50 grid into k squares cuts ~2*50*(sqrt(k)-1)
    ideal = 2 * 50 * (np.sqrt(k) - 1)
    record(benchmark, k=k, cut=cut, ideal_cut=ideal, imbalance=imb)
    assert imb <= 1.06
    assert cut <= 2.2 * ideal


def test_partition_two_constraint_overhead(benchmark, short_sequence):
    """Balancing the second (contact) constraint costs cut quality; the
    overhead factor is recorded for the record."""
    from repro.core.weights import build_contact_graph

    snap = short_sequence[0]
    g2 = build_contact_graph(snap, 1)
    g1 = g2.with_vwgts(g2.vwgts[:, :1])
    opts = strong_options()

    def run_both():
        p1 = partition_kway(g1, 8, opts)
        p2 = partition_kway(g2, 8, opts)
        return p1, p2

    p1, p2 = benchmark.pedantic(run_both, rounds=1, iterations=1)
    c1, c2 = edge_cut(g1, p1), edge_cut(g2, p2)
    record(benchmark, cut_1con=c1, cut_2con=c2, overhead=c2 / max(c1, 1))
    assert load_imbalance(g2, p2, 8).max() <= 1.12


def test_matching_throughput(benchmark):
    """Heavy-edge matching over a 200×200 grid (vectorised rounds)."""
    g = grid_graph(200, 200)
    cmap, nc = benchmark(lambda: heavy_edge_matching(g, seed=0))
    record(benchmark, n=g.num_vertices, n_coarse=nc,
           shrink=nc / g.num_vertices)
    assert nc < 0.65 * g.num_vertices


def test_coarsening_throughput(benchmark):
    """Full coarsening hierarchy of a 120×120 grid."""
    g = grid_graph(120, 120)
    opts = strong_options()
    h = benchmark(lambda: coarsen(g, opts))
    record(benchmark, levels=len(h.levels),
           coarsest=h.coarsest.num_vertices)


def test_smoke_traced_fit(benchmark):
    """CI smoke benchmark: one traced MCML+DT fit at k=8 on a coarse
    scene, phase timings attached to the JSON artifact (rounds=1)."""
    from repro.core.mcml_dt import MCMLDTParams, MCMLDTPartitioner
    from repro.obs import Tracer
    from repro.sim.projectile import ImpactConfig
    from repro.sim.sequence import simulate_impact

    snap = simulate_impact(ImpactConfig(n_steps=1, refine=0.6))[0]
    tracer = Tracer()
    params = MCMLDTParams(options=strong_options())

    pt = benchmark.pedantic(
        lambda: MCMLDTPartitioner(8, params).fit(snap, tracer=tracer),
        rounds=1,
        iterations=1,
    )
    root = tracer.finish()
    record(
        benchmark,
        tracer=tracer,
        k=8,
        edgecut=pt.diagnostics.edge_cut_final,
        nodes=snap.mesh.num_nodes,
    )
    assert root.find("fit/partition/coarsen") is not None
    assert root.find("fit/refine-G'") is not None


def _scalar_candidate_pairs(boxes, points, point_ids):
    """Pre-vectorisation reference: the per-box/per-point Python loop
    the certified ``box_candidate_pairs`` kernel replaced (kept here,
    outside the linted tree, as the before/after yardstick)."""
    from scipy.spatial import cKDTree

    if len(points) == 0 or len(boxes) == 0:
        return []
    tree = cKDTree(points)
    centers = (boxes[:, 0] + boxes[:, 1]) / 2.0
    radii = np.linalg.norm(boxes[:, 1] - boxes[:, 0], axis=1) / 2.0
    out = []
    hits = tree.query_ball_point(centers, radii + 1e-12)
    for b, cand in enumerate(hits):
        if not cand:
            continue
        cand = np.asarray(cand, dtype=np.int64)
        pts = points[cand]
        inside = (
            (pts >= boxes[b, 0]) & (pts <= boxes[b, 1])
        ).all(axis=1)
        for pid in point_ids[cand[inside]]:
            out.append((b, int(pid)))
    return out


def test_smoke_traced_search(benchmark):
    """CI smoke benchmark: the contact-search inner kernel (one
    dual-tree pass, certified ``box_candidate_pairs``) vs the two
    bodies it replaced — the scalar Python loop and the one ball query
    per box — all measured, times recorded in the JSON artifact."""
    from time import perf_counter

    from repro.geometry.bbox import element_bboxes
    from repro.geometry.boxsearch import candidate_pairs
    from repro.sim.projectile import ImpactConfig
    from repro.sim.sequence import simulate_impact
    from tests.geometry.reference_boxsearch import (
        candidate_pairs as ball_query_candidate_pairs,
    )

    snap = simulate_impact(ImpactConfig(n_steps=1, refine=0.6))[0]
    boxes = element_bboxes(snap.mesh.nodes, snap.contact_faces)
    boxes[:, 0] -= 0.2
    boxes[:, 1] += 0.2
    points = snap.mesh.nodes[snap.contact_nodes]
    ids = np.asarray(snap.contact_nodes, dtype=np.int64)

    b_idx, node_ids = benchmark.pedantic(
        lambda: candidate_pairs(boxes, points, ids),
        rounds=3,
        iterations=1,
    )

    t0 = perf_counter()
    scalar = _scalar_candidate_pairs(boxes, points, ids)
    scalar_s = perf_counter() - t0
    t0 = perf_counter()
    ball = ball_query_candidate_pairs(boxes, points, ids)
    ball_s = perf_counter() - t0
    t0 = perf_counter()
    candidate_pairs(boxes, points, ids)
    vector_s = perf_counter() - t0

    assert set(zip(b_idx.tolist(), node_ids.tolist())) == set(scalar)
    assert set(zip(*(a.tolist() for a in ball))) == set(scalar)
    record(
        benchmark,
        n_boxes=len(boxes),
        n_points=len(points),
        n_pairs=len(b_idx),
        scalar_s=round(scalar_s, 6),
        ball_query_s=round(ball_s, 6),
        vectorized_s=round(vector_s, 6),
        speedup=round(scalar_s / max(vector_s, 1e-12), 2),
    )
