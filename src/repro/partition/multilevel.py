"""Multilevel bisection driver: coarsen → initial partition → uncoarsen.

The V-cycle at the heart of the partitioner. Candidate initial
bisections are each refined on the coarsest graph and ranked by
(balance violation, cut); the winner is projected back up the
hierarchy with an FM refinement pass at every level.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.metrics import edge_cut, partition_weights
from repro.obs.tracer import (
    SPAN_COARSEN,
    SPAN_INITIAL,
    SPAN_REFINE,
    TracerBase,
    ensure_tracer,
)
from repro.partition.balance import target_weights, violation
from repro.partition.coarsen import coarsen
from repro.partition.config import PartitionOptions
from repro.partition.initial import initial_bisection
from repro.partition.refine_fm import fm_refine_bisection
from repro.utils.rng import as_rng
from repro.utils.validation import check_csr_arrays, check_in_range


def multilevel_bisection(
    graph: CSRGraph,
    frac0: float = 0.5,
    options: Optional[PartitionOptions] = None,
    tracer: Optional[TracerBase] = None,
) -> np.ndarray:
    """Bisect ``graph`` into sides of fractions ``(frac0, 1 - frac0)``.

    Returns an ``int64[n]`` 0/1 partition vector balancing every
    vertex-weight constraint to within ``options.ubfactor``, with
    best-effort balance when exact feasibility is unattainable (e.g.
    very lumpy coarse vertices).
    """
    check_in_range("frac0", frac0, 0.0, 1.0, inclusive=False)
    check_csr_arrays(graph)
    options = options or PartitionOptions()
    tracer = ensure_tracer(tracer)
    n = graph.num_vertices
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if n == 1:
        return np.zeros(1, dtype=np.int64)

    rng = as_rng(options.seed)
    with tracer.span(SPAN_COARSEN):
        hierarchy = coarsen(graph, options)
        tracer.count("levels", len(hierarchy.levels))
    coarsest = hierarchy.coarsest

    fracs = np.array([frac0, 1.0 - frac0])
    coarse_targets = target_weights(coarsest.total_vwgt, fracs)

    # --- initial partitioning: refine every candidate, keep the best ---
    with tracer.span(SPAN_INITIAL):
        candidates = initial_bisection(
            coarsest, frac0, options.n_init_trials, seed=rng
        )
        tracer.count("trials", len(candidates))
        best_part, best_key = None, None
        for cand in candidates:
            cand = fm_refine_bisection(
                coarsest, cand, coarse_targets, options
            )
            pw = partition_weights(coarsest, cand, 2)
            key = (
                violation(pw, coarse_targets, options.ubfactor),
                edge_cut(coarsest, cand),
            )
            if best_key is None or key < best_key:
                best_key, best_part = key, cand
    part = best_part

    # --- uncoarsening with per-level refinement ---
    with tracer.span(SPAN_REFINE):
        for level in reversed(hierarchy.levels):
            part = part[level.cmap]
            lvl_targets = target_weights(level.graph.total_vwgt, fracs)
            part = fm_refine_bisection(
                level.graph, part, lvl_targets, options
            )
    return part
