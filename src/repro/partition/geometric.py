"""Geometry-seeded multi-constraint partitioning (paper §6).

The paper's future-work list asks for "better geometry-aware
multi-constraint partitioning algorithms" whose subdomains natively
have small bounding-box overlap. This implements the natural first
candidate: seed the partition with an RCB decomposition of *all* mesh
nodes — whose subdomains are perfect axis-parallel boxes — then repair
the (multi-constraint) balance and polish the cut with the standard
k-way machinery. Compared with the pure graph-based pipeline the seed
is geometry-optimal and the refinement only perturbs it locally, so
boundaries stay close to axis-parallel without the P→P'→P'' detour.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.geometry.rcb import rcb_partition
from repro.graph.csr import CSRGraph
from repro.partition.config import PartitionOptions
from repro.partition.fragments import absorb_fragments
from repro.partition.refine_kway import greedy_kway_refine, rebalance_kway


def geometric_seed_partition(
    graph: CSRGraph,
    coords: np.ndarray,
    k: int,
    options: Optional[PartitionOptions] = None,
    refine: bool = True,
) -> np.ndarray:
    """Partition ``graph`` into ``k`` parts from an RCB seed.

    ``coords`` are the vertex coordinates (aligned with the graph).
    The RCB seed is computed with the first vertex-weight column as
    point weights (the FE work), then multi-constraint rebalancing and
    greedy refinement enforce every constraint of ``graph.vwgts``.
    With ``refine=False`` the raw (rebalanced) RCB decomposition is
    returned — useful as an ablation endpoint.
    """
    coords = np.asarray(coords, dtype=float)
    if len(coords) != graph.num_vertices:
        raise ValueError("coords must align with graph vertices")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    options = options or PartitionOptions()
    if k == 1:
        return np.zeros(graph.num_vertices, dtype=np.int64)

    weights = graph.vwgts[:, 0].astype(float)
    # RCB needs strictly positive weights to target; orphaned vertices
    # (zero FE work) ride along with weight epsilon
    weights = np.where(weights > 0, weights, 1e-6)
    part, _tree = rcb_partition(coords, k, weights=weights)

    part, _ = rebalance_kway(graph, part, k, options)
    if refine:
        part = greedy_kway_refine(graph, part, k, options)
        part, moved = absorb_fragments(graph, part, k, options)
        if moved:
            part, _ = rebalance_kway(graph, part, k, options)
            part = greedy_kway_refine(graph, part, k, options)
    return part
