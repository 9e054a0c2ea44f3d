"""k-way partitioning by recursive multilevel bisection.

For non-power-of-two ``k`` the bisection targets are proportional
(``ceil(k/2)/k`` vs ``floor(k/2)/k``), the standard METIS recursion.
Each recursion level gets an independent derived random seed so the
result is deterministic in the root seed.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.ops import induced_subgraph
from repro.obs.tracer import NULL_TRACER, TracerBase, ensure_tracer
from repro.partition.config import PartitionOptions
from repro.partition.multilevel import multilevel_bisection
from repro.utils.rng import spawn_rngs
from repro.utils.validation import check_csr_arrays


def recursive_bisection(
    graph: CSRGraph,
    k: int,
    options: Optional[PartitionOptions] = None,
    tracer: Optional[TracerBase] = None,
) -> np.ndarray:
    """Partition ``graph`` into ``k`` parts; returns ``int64[n]`` labels
    in ``[0, k)``.

    ``tracer`` accumulates coarsen/initial/refine spans across all
    ``k - 1`` bisections (one aggregate span per phase).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    check_csr_arrays(graph)
    options = options or PartitionOptions()
    part = np.zeros(graph.num_vertices, dtype=np.int64)
    _recurse(
        graph,
        k,
        0,
        options,
        part,
        np.arange(graph.num_vertices, dtype=np.int64),
        ensure_tracer(tracer),
    )
    return part


def _recurse(
    graph: CSRGraph,
    k: int,
    label_offset: int,
    options: PartitionOptions,
    out: np.ndarray,
    global_ids: np.ndarray,
    tracer: TracerBase = NULL_TRACER,
) -> None:
    if k == 1 or graph.num_vertices == 0:
        out[global_ids] = label_offset
        return
    k0 = (k + 1) // 2
    k1 = k - k0
    rng0, rng1, rng_bis = spawn_rngs(options.seed, 3)
    # Imbalance compounds multiplicatively down the recursion. Each
    # bisection gets the depth-th root of the tolerance, but ``depth``
    # is this sub-problem's own and ``options.ubfactor`` is the root's,
    # passed down unchanged: the bounds along a root-to-leaf path
    # multiply to more than ``ubfactor`` (1.05 gives ≈ 1.094 at k = 8,
    # up to ≈ 1.118 at k = 25), and k-way rebalancing takes up the rest.
    depth = int(np.ceil(np.log2(k)))
    level_ub = max(1.003, options.ubfactor ** (1.0 / depth))
    bis_options = replace(options, seed=rng_bis, ubfactor=level_ub)
    side = multilevel_bisection(
        graph, frac0=k0 / k, options=bis_options, tracer=tracer
    )

    left_local = np.nonzero(side == 0)[0]
    right_local = np.nonzero(side == 1)[0]
    left_graph, _ = induced_subgraph(graph, left_local)
    right_graph, _ = induced_subgraph(graph, right_local)
    _recurse(
        left_graph,
        k0,
        label_offset,
        replace(options, seed=rng0),
        out,
        global_ids[left_local],
        tracer,
    )
    _recurse(
        right_graph,
        k1,
        label_offset + k0,
        replace(options, seed=rng1),
        out,
        global_ids[right_local],
        tracer,
    )
