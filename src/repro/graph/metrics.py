"""Partition-quality metrics (paper §2 definitions).

* ``edge_cut`` — sum of weights of edges whose endpoints differ.
* ``total_comm_volume`` — Hendrickson's communication-volume metric:
  for each vertex, the number of *distinct* remote partitions among its
  neighbours, summed over vertices. This is the paper's **FEComm**.
* ``load_imbalance`` — per-constraint max partition weight over average
  (``LoadImbalance(P, j)`` in §2).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.arrays import sum_by_label


def partition_weights(graph: CSRGraph, part: np.ndarray, k: int) -> np.ndarray:
    """Per-partition, per-constraint weight sums, shape ``(k, ncon)``."""
    return sum_by_label(np.asarray(part, dtype=np.int64), graph.vwgts, k)


def edge_cut(graph: CSRGraph, part: np.ndarray) -> int:
    """Total weight of cut edges, each undirected edge counted once."""
    part = np.asarray(part, dtype=np.int64)
    cut = part[graph.row_index] != part[graph.adjncy]
    return int(graph.adjwgt[cut].sum() // 2)


def total_comm_volume(graph: CSRGraph, part: np.ndarray) -> int:
    """Total communication volume of a partitioning (FEComm).

    For every vertex ``v`` owned by partition ``p``, count the number
    of distinct partitions ``q != p`` that own at least one neighbour
    of ``v``; sum over vertices. Equivalently: the number of (vertex,
    remote-partition) interface pairs — each such pair is one value
    that must be sent during a halo exchange.
    """
    part = np.asarray(part, dtype=np.int64)
    src = graph.row_index
    nbr_part = part[graph.adjncy]
    remote = nbr_part != part[src]
    pairs = np.column_stack((src[remote], nbr_part[remote]))
    if len(pairs) == 0:
        return 0
    # distinct (vertex, remote partition) pairs
    key = pairs[:, 0] * np.int64(part.max() + 1) + pairs[:, 1]
    return int(len(np.unique(key)))


def load_imbalance(
    graph: CSRGraph, part: np.ndarray, k: int
) -> np.ndarray:
    """Per-constraint load imbalance, shape ``(ncon,)``.

    ``LoadImbalance(P, j) = max_i w_j(V_i) / (w_j(V)/k)``; 1.0 is
    perfect balance. Constraints with zero total weight report 1.0.
    """
    weights = partition_weights(graph, part, k).astype(float)
    totals = graph.total_vwgt.astype(float)
    out = np.ones(graph.ncon, dtype=np.float64)
    for j in range(graph.ncon):
        if totals[j] > 0:
            out[j] = weights[:, j].max() / (totals[j] / k)
    return out


def external_degree(graph: CSRGraph, part: np.ndarray) -> np.ndarray:
    """Per vertex, the number of adjacency entries that lead into
    another partition, ``int64[n]``."""
    part = np.asarray(part, dtype=np.int64)
    src = graph.row_index
    cut = part[src] != part[graph.adjncy]
    return np.bincount(src[cut], minlength=graph.num_vertices)


def boundary_vertices(graph: CSRGraph, part: np.ndarray) -> np.ndarray:
    """Vertices with at least one neighbour in another partition."""
    return np.flatnonzero(external_degree(graph, part))
