"""The paper's contribution and its baseline.

* :mod:`repro.core.weights` — the two-constraint, contact-weighted
  nodal graph model (§4.2), and the builder that carries it across a
  snapshot sequence.
* :mod:`repro.core.mcml_dt` — the MCML+DT partitioner: multi-constraint
  partition → decision-tree-guided reshaping (P → P' → P'') →
  pure-tree subdomain descriptors → tree-filtered global search.
* :mod:`repro.core.ml_rcb` — the ML+RCB baseline (Plimpton et al.):
  separate graph and RCB decompositions with mesh-to-mesh transfer.
* :mod:`repro.core.contact_search` — serial reference and simulated
  parallel global search (completeness cross-check).
* :mod:`repro.core.update` — §4.3 update strategies.
* :mod:`repro.core.pipeline` — sequence evaluation producing the
  Table-1 metrics.
"""

from repro.core.weights import ContactGraphBuilder, build_contact_graph
from repro.core.partitioner import (
    PartitionDiagnostics,
    PartitionResult,
    Partitioner,
)
from repro.core.mcml_dt import MCMLDTParams, MCMLDTPartitioner
from repro.core.ml_rcb import MLRCBParams, MLRCBPartitioner
from repro.core.apriori import AprioriParams, AprioriPartitioner
from repro.core.contact_search import (
    face_owner_partition,
    parallel_contact_search,
    serial_candidate_pairs,
)
from repro.core.local_search import (
    ContactResolution,
    penetration_summary,
    resolve_candidates,
)
from repro.core.driver import ContactStepDriver, StepResult
from repro.core.update import UpdateStrategy
from repro.core.pipeline import (
    SequenceResult,
    StepMetrics,
    evaluate_mcml_dt,
    evaluate_ml_rcb,
    table1,
)

__all__ = [
    "build_contact_graph",
    "ContactGraphBuilder",
    "Partitioner",
    "PartitionDiagnostics",
    "PartitionResult",
    "MCMLDTParams",
    "MCMLDTPartitioner",
    "MLRCBParams",
    "MLRCBPartitioner",
    "AprioriParams",
    "AprioriPartitioner",
    "face_owner_partition",
    "parallel_contact_search",
    "serial_candidate_pairs",
    "ContactResolution",
    "penetration_summary",
    "resolve_candidates",
    "ContactStepDriver",
    "StepResult",
    "UpdateStrategy",
    "SequenceResult",
    "StepMetrics",
    "evaluate_mcml_dt",
    "evaluate_ml_rcb",
    "table1",
]
