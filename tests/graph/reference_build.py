"""Test-only oracles: ``from_edge_list``, ``Mesh.used_nodes`` and
``random_geometric_graph`` as they stood before the graph build was
made cheaper in place.

The bodies are verbatim copies (three sorts and ``np.add.at`` in
``from_edge_list``; ``np.unique`` over the connectivity; per-point
bucket loops in the geometric generator, minus three assignments
whose values were never read). A row of the CSR these
produce is *[larger neighbours ascending, then smaller ascending]*,
and the partitioner's tie-breaks read that order, so the differential
tests in ``test_build.py`` assert equal arrays — dtype and contiguity
included — not an isomorphic graph. Do not "fix" or speed these up.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_array, check_positive


CSR_ARRAYS = ("xadj", "adjncy", "adjwgt", "vwgts")


def assert_same_arrays(got: CSRGraph, expected: CSRGraph) -> None:
    """Equal CSR arrays, not an isomorphic graph: values (so the order
    within a row), dtype, shape and contiguity."""
    for name in CSR_ARRAYS:
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert a.flags["C_CONTIGUOUS"] and b.flags["C_CONTIGUOUS"], name
        assert np.array_equal(a, b), name


def from_edge_list_reference(
    n: int,
    edges: np.ndarray,
    weights: Optional[np.ndarray] = None,
    vwgts: Optional[np.ndarray] = None,
    combine: str = "sum",
) -> CSRGraph:
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    check_array("edges", edges, ndim=2, shape=(None, 2))
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise ValueError("edge endpoints out of range")
    if weights is None:
        weights = np.ones(len(edges), dtype=np.int64)
    else:
        weights = np.asarray(weights, dtype=np.int64)
        if len(weights) != len(edges):
            raise ValueError("weights length must match edges")

    # drop self loops
    keep = edges[:, 0] != edges[:, 1]
    edges, weights = edges[keep], weights[keep]

    # canonicalise (u < v), dedupe, merge weights
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    key = lo * np.int64(n) + hi
    order = np.argsort(key, kind="stable")
    key, lo, hi, weights = key[order], lo[order], hi[order], weights[order]
    uniq_key, start = np.unique(key, return_index=True)
    if combine == "sum":
        merged_w = np.add.reduceat(weights, start) if len(weights) else weights
    elif combine == "max":
        merged_w = (
            np.maximum.reduceat(weights, start) if len(weights) else weights
        )
    elif combine == "first":
        merged_w = weights[start]
    else:
        raise ValueError(f"unknown combine mode {combine!r}")
    lo, hi = lo[start], hi[start]

    # symmetrise and pack into CSR
    src = np.concatenate((lo, hi))
    dst = np.concatenate((hi, lo))
    wgt = np.concatenate((merged_w, merged_w))
    order = np.argsort(src, kind="stable")
    src, dst, wgt = src[order], dst[order], wgt[order]
    xadj = np.zeros(n + 1, dtype=np.int64)
    np.add.at(xadj, src + 1, 1)
    xadj = np.cumsum(xadj)

    if vwgts is None:
        vwgts = np.ones((n, 1), dtype=np.int64)
    return CSRGraph(xadj, dst, wgt, vwgts)


def used_nodes_reference(elements: np.ndarray) -> np.ndarray:
    """Sorted ids of nodes referenced by at least one element."""
    return np.unique(elements)


def random_geometric_edges_reference(
    n: int,
    radius: float,
    dim: int = 2,
    seed: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The old ``random_geometric_graph`` up to (not including) its
    final ``from_edge_list`` call; returns ``(edges, pts)``."""
    check_positive("n", n)
    check_positive("radius", radius)
    rng = as_rng(seed)
    pts = rng.random((n, dim))
    cell = max(radius, 1e-9)
    keys = np.floor(pts / cell).astype(np.int64)
    edges = []
    # candidate pairs: same or adjacent cells; brute force within buckets
    buckets = defaultdict(list)
    for i in range(n):
        buckets[tuple(keys[i])].append(i)
    offsets = np.array(
        np.meshgrid(*([[-1, 0, 1]] * dim), indexing="ij")
    ).reshape(dim, -1).T
    r2 = radius * radius
    for ck, members in buckets.items():
        mem = np.asarray(members)
        for off in offsets:
            nk = tuple(np.asarray(ck) + off)
            if nk not in buckets:
                continue
            other = np.asarray(buckets[nk])
            d2 = ((pts[mem, None, :] - pts[None, other, :]) ** 2).sum(-1)
            ii, jj = np.nonzero(d2 <= r2)
            for a, b in zip(mem[ii], other[jj]):
                if a < b:
                    edges.append((a, b))
    edges = (
        np.asarray(edges, dtype=np.int64)
        if edges
        else np.empty((0, 2), dtype=np.int64)
    )
    return edges, pts
