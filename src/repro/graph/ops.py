"""Structural graph operations: contraction, subgraphs, components.

``contract`` is the inner loop of multilevel coarsening and of the
leaf-collapse step that builds the refinement graph ``G'`` (paper
§4.2), so it is fully vectorised: coarse edges are merged with one
``lexsort``/``reduceat`` pass instead of per-edge hashing.
Connected components are NumPy only (min-label hooking and pointer
jumping over the edge arrays), so nothing here imports SciPy.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.arrays import sum_by_label


def contract(graph: CSRGraph, cmap: np.ndarray, n_coarse: int) -> CSRGraph:
    """Contract ``graph`` according to the vertex map ``cmap``.

    ``cmap[v]`` is the coarse vertex that fine vertex ``v`` maps to.
    Coarse vertex weights are the per-constraint sums of their fine
    vertices; parallel edges are merged by summing weights; edges
    internal to a coarse vertex vanish.
    """
    cmap = np.asarray(cmap, dtype=np.int64)
    if len(cmap) != graph.num_vertices:
        raise ValueError("cmap length must equal number of vertices")
    if cmap.size and (cmap.min() < 0 or cmap.max() >= n_coarse):
        raise ValueError("cmap values out of range")

    # coarse vertex weights
    cvw = sum_by_label(cmap, graph.vwgts, n_coarse)

    # coarse edges
    src = cmap[graph.row_index]
    dst = cmap[graph.adjncy]
    keep = src != dst
    src, dst, wgt = src[keep], dst[keep], graph.adjwgt[keep]
    if len(src) == 0:
        xadj = np.zeros(n_coarse + 1, dtype=np.int64)
        return CSRGraph(xadj, src, wgt, cvw)

    # merge parallel (directed) edges; both directions are present in the
    # input so the result stays symmetric
    key = src * np.int64(n_coarse) + dst
    order = np.argsort(key, kind="stable")
    key, src, dst, wgt = key[order], src[order], dst[order], wgt[order]
    start = np.flatnonzero(np.diff(key, prepend=np.int64(-1)))
    merged_w = np.add.reduceat(wgt, start)
    src, dst = src[start], dst[start]

    xadj = np.cumsum(np.bincount(src + 1, minlength=n_coarse + 1))
    return CSRGraph(xadj, dst, merged_w, cvw)


def induced_subgraph(
    graph: CSRGraph, vertices: np.ndarray
) -> Tuple[CSRGraph, np.ndarray]:
    """Subgraph induced by ``vertices``.

    Returns ``(subgraph, vertices)`` where ``vertices[i]`` is the
    original id of subgraph vertex ``i`` — the inverse map needed to
    project a partition of the subgraph back onto the parent (used by
    recursive bisection).
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    n = graph.num_vertices
    local = np.full(n, -1, dtype=np.int64)
    local[vertices] = np.arange(len(vertices), dtype=np.int64)

    src = graph.row_index
    keep = (local[src] >= 0) & (local[graph.adjncy] >= 0)
    s, d, w = local[src[keep]], local[graph.adjncy[keep]], graph.adjwgt[keep]
    xadj = np.cumsum(np.bincount(s + 1, minlength=len(vertices) + 1))
    order = np.argsort(s, kind="stable")
    sub = CSRGraph(xadj, d[order], w[order], graph.vwgts[vertices])
    return sub, vertices


def label_components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Connected components of the ``n``-vertex graph with edges
    ``src[i] – dst[i]``; returns ``int64[n]`` of component ids.

    Min-label hooking: every root takes the smallest root across its
    edges (``np.minimum.at``), pointer jumping (``lab = lab[lab]``)
    flattens the forest, and edges inside one label drop out, until no
    edge joins two labels — O(log n) rounds in practice. Labels only
    ever fall, so each component's root ends as its lowest vertex id,
    and components are numbered in that order: the order a sweep over
    ``range(n)`` first meets them. Either direction of an edge, or
    both, may be given.
    """
    lab = np.arange(n, dtype=np.int64)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    while len(src):
        a, b = lab[src], lab[dst]
        live = a != b
        if not live.any():
            break
        src, dst, a, b = src[live], dst[live], a[live], b[live]
        np.minimum.at(lab, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = lab[lab]
            if np.array_equal(jumped, lab):
                break
            lab = jumped
    roots = np.cumsum(lab == np.arange(n, dtype=np.int64)) - 1
    return roots[lab]


def connected_components(graph: CSRGraph) -> np.ndarray:
    """Label connected components; returns ``int64[n]`` of component ids.

    Components are numbered in order of their lowest vertex id (the
    order a sweep over ``range(n)`` first meets them), which is what
    :func:`scipy.sparse.csgraph.connected_components` produces.
    """
    src = graph.row_index
    one_way = src < graph.adjncy
    return label_components(
        graph.num_vertices, src[one_way], graph.adjncy[one_way]
    )
