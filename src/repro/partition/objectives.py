"""Multi-objective edge weights (paper §2, Schloegel et al. [31]).

The paper's background defines partitionings that minimise an objective
over a *vector* of edge weights. The contact problem is naturally
two-objective: every cut edge costs FE-phase communication (objective
0), and cut contact-contact edges additionally cost search-phase
communication (objective 1). The paper's production choice — scalar
edge weight 5 on contact-contact edges — is one scalarisation of that
vector; this module makes the vector explicit so the trade-off curve
can be swept:

* :class:`EdgeObjectives` stores per-edge objective vectors aligned
  with a graph's CSR arrays;
* :func:`scalarize` folds them into a single weight with coefficients;
* :func:`per_objective_cuts` reports each objective's cut separately;
* :func:`multi_objective_partition` partitions under a chosen
  coefficient vector and reports the full cut vector, enabling Pareto
  sweeps (see ``benchmarks/bench_objectives.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partition.config import PartitionOptions
from repro.partition.kway import partition_kway
from repro.sim.sequence import ContactSnapshot


@dataclass
class EdgeObjectives:
    """Per-edge objective vectors, aligned with ``graph.adjncy``.

    ``values`` has shape ``(len(adjncy), r)``; both directions of each
    undirected edge must carry the same vector (validated).
    """

    graph: CSRGraph
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.ascontiguousarray(self.values, dtype=np.int64)
        if self.values.ndim != 2:
            raise ValueError("objective values must be 2-D")
        if len(self.values) != len(self.graph.adjncy):
            raise ValueError("objective values must align with adjncy")

    @property
    def n_objectives(self) -> int:
        """Number of edge objectives (r)."""
        return self.values.shape[1]

    def validate_symmetry(self) -> None:
        """Both copies of every undirected edge must agree."""
        g = self.graph
        src = g.row_index
        order_fwd = np.lexsort((g.adjncy, src))
        order_rev = np.lexsort((src, g.adjncy))
        if not np.array_equal(
            self.values[order_fwd], self.values[order_rev]
        ):
            raise ValueError("objective vectors are not symmetric")


def build_contact_objectives(
    snapshot: ContactSnapshot,
    base_graph: Optional[CSRGraph] = None,
) -> EdgeObjectives:
    """The contact problem's natural two objectives.

    Objective 0: FE-phase communication — 1 on every edge.
    Objective 1: search-phase communication — 1 on contact-contact
    edges, 0 elsewhere.
    """
    from repro.core.weights import build_contact_graph

    graph = base_graph if base_graph is not None else build_contact_graph(
        snapshot, contact_edge_weight=1
    )
    n = graph.num_vertices
    is_contact = np.zeros(n, dtype=bool)
    is_contact[snapshot.contact_nodes] = True
    both = is_contact[graph.row_index] & is_contact[graph.adjncy]
    values = np.column_stack(
        (np.ones(len(graph.adjncy), dtype=np.int64), both.astype(np.int64))
    )
    return EdgeObjectives(graph=graph, values=values)


def scalarize(
    objectives: EdgeObjectives, coefficients: Sequence[float]
) -> CSRGraph:
    """Fold objective vectors into scalar edge weights
    ``max(1, round(values @ coefficients))``."""
    coefficients = np.asarray(coefficients, dtype=float)
    if len(coefficients) != objectives.n_objectives:
        raise ValueError(
            f"need {objectives.n_objectives} coefficients, "
            f"got {len(coefficients)}"
        )
    if (coefficients < 0).any():
        raise ValueError("coefficients must be non-negative")
    combined = objectives.values @ coefficients
    weights = np.maximum(1, np.rint(combined)).astype(np.int64)
    return objectives.graph.with_adjwgt(weights)


def per_objective_cuts(
    objectives: EdgeObjectives, part: np.ndarray
) -> np.ndarray:
    """Cut value of each objective separately, shape ``(r,)``."""
    part = np.asarray(part, dtype=np.int64)
    g = objectives.graph
    cut = part[g.row_index] != part[g.adjncy]
    return objectives.values[cut].sum(axis=0) // 2


def multi_objective_partition(
    objectives: EdgeObjectives,
    k: int,
    coefficients: Sequence[float],
    options: Optional[PartitionOptions] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Partition under a scalarisation; returns ``(part, cut_vector)``.

    Sweeping ``coefficients`` traces the Pareto front between the
    objectives (each partition is optimal only for its own
    scalarisation, per [31]).
    """
    graph = scalarize(objectives, coefficients)
    part = partition_kway(graph, k, options)
    return part, per_objective_cuts(objectives, part)
