"""Graph construction: from edge lists, synthetic generators, adapters.

All builders are fully vectorised. :func:`from_edge_list` sorts the
canonicalised edge keys once (by value when no weights are given — the
nodal graph's case — with the stable permutation otherwise), merges
duplicates on the run boundaries of that order and scatters both
directions of every edge straight into CSR (``bincount`` offsets, one
more stable sort of the unique edges for the mirrored half) — no
per-edge Python, no ``np.unique``, no ``np.add.at``. Its output
arrays are pinned, order within a row included, by
``tests/graph/reference_build.py``.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_array, check_positive


def from_edge_list(
    n: int,
    edges: np.ndarray,
    weights: Optional[np.ndarray] = None,
    vwgts: Optional[np.ndarray] = None,
    combine: str = "sum",
) -> CSRGraph:
    """Build a :class:`CSRGraph` from an ``(m, 2)`` array of undirected edges.

    Self-loops are dropped; duplicate edges are merged with ``combine``
    (``"sum"``, ``"max"``, or ``"first"``) applied to their weights.
    ``vwgts`` defaults to unit single-constraint weights.
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    check_array("edges", edges, ndim=2, shape=(None, 2))
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise ValueError("edge endpoints out of range")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.int64)
        if len(weights) != len(edges):
            raise ValueError("weights length must match edges")
    if combine not in ("sum", "max", "first"):
        raise ValueError(f"unknown combine mode {combine!r}")

    # drop self loops
    u, v = edges[:, 0], edges[:, 1]
    keep = u != v
    if not keep.all():
        u, v = u[keep], v[keep]
        if weights is not None:
            weights = weights[keep]

    # canonicalise (lo < hi) and sort once; an edge's duplicates are
    # then one run of equal keys, in input order
    key = np.minimum(u, v) * np.int64(n) + np.maximum(u, v)
    if weights is None:
        # unit weights: a merged weight is the run's length or 1, so
        # the keys are sorted by value and no permutation is applied
        key = np.sort(key)
    else:
        order = np.argsort(key, kind="stable")
        key, weights = key[order], weights[order]
    is_start = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=is_start[1:])
    start = np.flatnonzero(is_start)
    m = len(start)
    if weights is None:
        if combine == "sum":
            wgt = np.diff(start, append=len(key))
        else:
            wgt = np.ones(m, dtype=np.int64)
    elif combine == "first" or not m:
        wgt = weights[start]
    elif combine == "sum":
        wgt = np.add.reduceat(weights, start)
    else:
        wgt = np.maximum.reduceat(weights, start)
    lo, hi = np.divmod(key[start], np.int64(n))

    # Symmetrise straight into CSR. Row v is [larger neighbours
    # ascending, then smaller ascending] — partitioner tie-breaks read
    # that order, so it is part of the contract. The ``lo`` copy of
    # the edges is already in row order; the ``hi`` copy needs one
    # stable sort of m keys.
    n_up = np.bincount(lo, minlength=n)
    n_down = np.bincount(hi, minlength=n)
    xadj = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_up + n_down, out=xadj[1:])
    adjncy = np.empty(2 * m, dtype=np.int64)
    adjwgt = np.empty(2 * m, dtype=np.int64)
    slot = np.arange(m, dtype=np.int64)
    up = slot + (xadj[:-1] - (np.cumsum(n_up) - n_up))[lo]
    adjncy[up] = hi
    adjwgt[up] = wgt
    by_hi = np.argsort(hi, kind="stable")
    row = hi[by_hi]
    down = slot + (xadj[:-1] + n_up - (np.cumsum(n_down) - n_down))[row]
    adjncy[down] = lo[by_hi]
    adjwgt[down] = wgt[by_hi]

    if vwgts is None:
        vwgts = np.ones((n, 1), dtype=np.int64)
    return CSRGraph(xadj, adjncy, adjwgt, vwgts)


def grid_graph(
    nx: int, ny: int, nz: int = 1, vwgts: Optional[np.ndarray] = None
) -> CSRGraph:
    """Structured ``nx × ny × nz`` grid graph (6-point stencil).

    The workhorse synthetic input for partitioner tests: its optimal
    bisections are known (straight cuts), so cut quality is easy to
    bound.
    """
    check_positive("nx", nx)
    check_positive("ny", ny)
    check_positive("nz", nz)
    idx = np.arange(nx * ny * nz, dtype=np.int64).reshape(nx, ny, nz)
    pairs = []
    if nx > 1:
        pairs.append(
            np.column_stack((idx[:-1].ravel(), idx[1:].ravel()))
        )
    if ny > 1:
        pairs.append(
            np.column_stack((idx[:, :-1].ravel(), idx[:, 1:].ravel()))
        )
    if nz > 1:
        pairs.append(
            np.column_stack((idx[:, :, :-1].ravel(), idx[:, :, 1:].ravel()))
        )
    edges = (
        np.concatenate(pairs)
        if pairs
        else np.empty((0, 2), dtype=np.int64)
    )
    return from_edge_list(nx * ny * nz, edges, vwgts=vwgts)


def grid_coords(nx: int, ny: int, nz: int = 1) -> np.ndarray:
    """Coordinates matching :func:`grid_graph` vertex numbering."""
    xs, ys, zs = np.meshgrid(
        np.arange(nx, dtype=float),
        np.arange(ny, dtype=float),
        np.arange(nz, dtype=float),
        indexing="ij",
    )
    pts = np.column_stack((xs.ravel(), ys.ravel(), zs.ravel()))
    return pts[:, :2] if nz == 1 else pts


def random_geometric_graph(
    n: int,
    radius: float,
    dim: int = 2,
    seed: SeedLike = None,
) -> Tuple[CSRGraph, np.ndarray]:
    """Random geometric graph in the unit cube; returns ``(graph, coords)``.

    Vertices are uniform points; edges join pairs within ``radius``.
    Used to exercise the geometry-coupled code paths (RCB, decision
    trees) on irregular inputs. Pair search is a KD-tree radius query;
    SciPy is imported here, on first use, so importing the package
    does not load it.
    """
    from scipy.spatial import cKDTree

    check_positive("n", n)
    check_positive("radius", radius)
    rng = as_rng(seed)
    pts = rng.random((n, dim))
    edges = cKDTree(pts).query_pairs(radius, output_type="ndarray")
    return from_edge_list(n, edges), pts


def to_networkx(graph: CSRGraph) -> "Any":
    """Convert to a :mod:`networkx` graph (testing/visualisation only).

    Typed ``Any`` because networkx is an optional test dependency.
    """
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    for u, v, w in graph.iter_edges():
        g.add_edge(u, v, weight=w)
    return g
