"""Weighted-graph substrate used by the partitioner.

The central type is :class:`~repro.graph.csr.CSRGraph`, a compressed
sparse row adjacency structure with a *matrix* of vertex weights (one
column per balance constraint) and scalar edge weights — the same data
model METIS uses for multi-constraint partitioning.
"""

from repro.graph.csr import CSRGraph
from repro.graph.build import (
    from_edge_list,
    grid_graph,
    random_geometric_graph,
    to_networkx,
)
from repro.graph.ops import (
    connected_components,
    contract,
    induced_subgraph,
)
from repro.graph.digest import (
    canonical_array,
    digest_arrays,
    digest_graph,
)
from repro.graph.metrics import (
    edge_cut,
    load_imbalance,
    partition_weights,
    total_comm_volume,
)

__all__ = [
    "CSRGraph",
    "from_edge_list",
    "grid_graph",
    "random_geometric_graph",
    "to_networkx",
    "connected_components",
    "contract",
    "induced_subgraph",
    "canonical_array",
    "digest_arrays",
    "digest_graph",
    "edge_cut",
    "load_imbalance",
    "partition_weights",
    "total_comm_volume",
]
