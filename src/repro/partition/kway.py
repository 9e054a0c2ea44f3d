"""Top-level k-way partitioning entry point.

``partition_kway`` is the library's equivalent of
``METIS_PartGraphKway`` / the multi-constraint partitioner of [16]:
recursive multilevel bisection followed by a greedy multi-constraint
k-way refinement polish and, if needed, a rebalancing sweep.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.obs.tracer import (
    SPAN_ABSORB,
    SPAN_FM,
    SPAN_GREEDY,
    SPAN_REBALANCE,
    SPAN_REFINE,
    TracerBase,
    ensure_tracer,
)
from repro.partition.config import PartitionOptions
from repro.partition.fragments import absorb_fragments
from repro.partition.recursive import recursive_bisection
from repro.partition.refine_kway import greedy_kway_refine, rebalance_kway
from repro.partition.refine_kway_fm import kway_fm_refine
from repro.utils.validation import check_csr_arrays


def partition_kway(
    graph: CSRGraph,
    k: int,
    options: Optional[PartitionOptions] = None,
    tracer: Optional[TracerBase] = None,
) -> np.ndarray:
    """Compute a balanced k-way partition of ``graph``.

    Balances *every* column of ``graph.vwgts`` to within
    ``options.ubfactor`` (best effort when infeasible) while minimising
    the edge cut — i.e. single-constraint partitioning when ``ncon==1``
    and multi-constraint partitioning (paper §2/[16]) otherwise.
    """
    check_csr_arrays(graph)
    n = len(graph.xadj) - 1
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > max(1, n):
        raise ValueError(f"k={k} exceeds number of vertices {n}")
    options = options or PartitionOptions()
    tracer = ensure_tracer(tracer)
    part = recursive_bisection(graph, k, options, tracer=tracer)
    if k > 1:
        # absorb stray fragments (may overload their destinations),
        # repair balance, then polish the cut; twice, because
        # rebalancing/refinement can strand new islands. Each round
        # ends feasible: absorb is the only step allowed to overload,
        # and rebalance_kway runs right after it.
        span = tracer.span
        with span(SPAN_REFINE):
            for _round in range(2):
                with span(SPAN_ABSORB):
                    part, moved = absorb_fragments(graph, part, k, options)
                with span(SPAN_REBALANCE):
                    part, rebal_moved = rebalance_kway(
                        graph, part, k, options
                    )
                with span(SPAN_GREEDY):
                    part = greedy_kway_refine(graph, part, k, options)
                tracer.count("rebalance_moves", rebal_moved)
                if moved == 0:
                    break
            # hill-climbing FM polish (escapes the greedy loop's local
            # minima; feasibility-preserving)
            with span(SPAN_FM):
                part = kway_fm_refine(graph, part, k, options)
    return part
