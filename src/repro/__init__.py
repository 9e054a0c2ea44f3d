"""repro — Multi-constraint mesh partitioning for contact/impact
computations.

A from-scratch reproduction of Karypis (SC 2003): a multilevel
multi-constraint graph partitioner, decision-tree subdomain
descriptors with the paper's modified gini splitting index, the
MCML+DT contact/impact decomposition algorithm, the ML+RCB baseline,
a synthetic projectile-penetration workload, and a simulated SPMD
runtime that accounts every communicated item.

Quickstart::

    from repro import ImpactConfig, simulate_impact, table1

    seq = simulate_impact(ImpactConfig(n_steps=20))
    print(table1(seq, ks=(8,)).render())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.core import (
    MCMLDTParams,
    MCMLDTPartitioner,
    MLRCBParams,
    MLRCBPartitioner,
    PartitionDiagnostics,
    Partitioner,
    PartitionResult,
    build_contact_graph,
    evaluate_mcml_dt,
    evaluate_ml_rcb,
    table1,
)
from repro.core.update import UpdateStrategy
from repro.dtree import induce_bounded_tree, induce_pure_tree
from repro.graph import CSRGraph
from repro.mesh import Mesh, nodal_graph
from repro.partition import PartitionOptions, partition_kway
from repro.geometry import rcb_partition
from repro.sim import ContactSnapshot, ImpactConfig, MeshSequence, simulate_impact

__version__ = "1.0.0"

__all__ = [
    "MCMLDTParams",
    "MCMLDTPartitioner",
    "MLRCBParams",
    "MLRCBPartitioner",
    "Partitioner",
    "PartitionDiagnostics",
    "PartitionResult",
    "build_contact_graph",
    "evaluate_mcml_dt",
    "evaluate_ml_rcb",
    "table1",
    "UpdateStrategy",
    "induce_bounded_tree",
    "induce_pure_tree",
    "CSRGraph",
    "Mesh",
    "nodal_graph",
    "PartitionOptions",
    "partition_kway",
    "rcb_partition",
    "ContactSnapshot",
    "ImpactConfig",
    "MeshSequence",
    "simulate_impact",
    "__version__",
]
