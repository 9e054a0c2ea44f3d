"""Diffusion-based (re)partitioning for adaptive updates (paper §4.3).

When the mesh topology or weights drift during a simulation, the old
partition becomes unbalanced but mostly still good. Rather than
partitioning from scratch (which would maximise data movement), the
repartitioner repairs balance with a minimal-movement diffusion sweep
and then re-polishes the cut — the same trade-off the multilevel
diffusion repartitioners of Schloegel et al. make.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partition.config import PartitionOptions
from repro.partition.refine_kway import greedy_kway_refine, rebalance_kway


@dataclass
class RepartitionResult:
    """Outcome of a repartitioning step.

    ``n_moved`` counts vertices whose owner changed — the data
    redistribution cost the second objective of graph repartitioning
    (paper §2) tries to minimise.
    """

    part: np.ndarray
    n_moved: int


def diffusion_repartition(
    graph: CSRGraph,
    old_part: np.ndarray,
    k: int,
    options: Optional[PartitionOptions] = None,
) -> RepartitionResult:
    """Repartition ``graph`` starting from ``old_part``.

    Restores every balance constraint (best effort) and improves the
    cut while maximising overlap with ``old_part``. Returns the new
    partition and the number of vertices that changed owner.
    """
    options = options or PartitionOptions()
    old_part = np.asarray(old_part, dtype=np.int64)
    if len(old_part) != graph.num_vertices:
        raise ValueError("old_part length must match graph size")
    if old_part.size and (old_part.min() < 0 or old_part.max() >= k):
        raise ValueError("old_part labels out of range")

    part = old_part.copy()
    part, _ = rebalance_kway(graph, part, k, options)
    part = greedy_kway_refine(graph, part, k, options)
    n_moved = int(np.count_nonzero(part != old_part))
    return RepartitionResult(part=part, n_moved=n_moved)
