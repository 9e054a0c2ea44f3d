"""A-priori contact partitioning (paper §3, first problem class).

When the surfaces that will come into contact are known or predictable
— e.g. a bumper about to strike a known wall — the classical approach
(ParaDyn [12]) augments the mesh graph with *virtual edges* between the
to-be-contacting surface nodes and runs a two-constraint partitioning.
Minimising the (weighted) cut then pulls contacting surface pairs into
the same partition, so the contact search becomes mostly local.

This is the baseline the paper's *general* method replaces when no such
prediction exists; implementing it lets the benchmarks quantify the gap
between prediction-aware and prediction-free decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.core.contact_search import face_owner_partition
from repro.core.partitioner import PartitionResult, make_result
from repro.core.weights import build_contact_graph
from repro.dtree.induction import induce_pure_tree
from repro.dtree.query import tree_filter_search
from repro.geometry.bbox import element_bboxes
from repro.geometry.boxsearch import SearchPlan
from repro.graph.build import from_edge_list
from repro.graph.csr import CSRGraph
from repro.graph.metrics import edge_cut
from repro.obs.tracer import TracerBase, ensure_tracer
from repro.partition.config import PartitionOptions
from repro.partition.kway import partition_kway
from repro.runtime.ledger import CommLedger
from repro.sim.sequence import ContactSnapshot


def predict_contact_pairs(
    snapshot: ContactSnapshot, radius: float
) -> np.ndarray:
    """Predict contacting node pairs: contact nodes of *different*
    bodies within ``radius`` of each other, ``(p, 2)`` node ids.

    This is the oracle a simulation analyst provides in the first-class
    setting; here proximity in the initial geometry stands in for it.
    SciPy's KD-tree is imported here, on first use, so importing the
    package does not load SciPy.
    """
    from scipy.spatial import cKDTree

    if radius <= 0:
        raise ValueError("radius must be > 0")
    cn = snapshot.contact_nodes
    coords = snapshot.mesh.nodes[cn]
    body = snapshot.mesh.node_body_id()[cn]
    tree = cKDTree(coords)
    pairs = tree.query_pairs(radius, output_type="ndarray")
    if len(pairs) == 0:
        return np.empty((0, 2), dtype=np.int64)
    cross = body[pairs[:, 0]] != body[pairs[:, 1]]
    return cn[pairs[cross]].astype(np.int64)


def build_apriori_graph(
    snapshot: ContactSnapshot,
    predicted_pairs: np.ndarray,
    contact_edge_weight: int = 5,
    virtual_edge_weight: int = 10,
) -> CSRGraph:
    """The §3 graph model: the two-constraint contact graph plus
    heavy virtual edges between predicted contacting pairs."""
    if virtual_edge_weight < 1:
        raise ValueError("virtual_edge_weight must be >= 1")
    base = build_contact_graph(snapshot, contact_edge_weight)
    predicted_pairs = np.asarray(predicted_pairs, dtype=np.int64)
    if len(predicted_pairs) == 0:
        return base
    edges = np.concatenate(
        [
            np.column_stack((base.row_index, base.adjncy)),
            predicted_pairs,
        ]
    )
    weights = np.concatenate(
        [
            base.adjwgt,
            np.full(len(predicted_pairs), virtual_edge_weight,
                    dtype=np.int64),
        ]
    )
    return from_edge_list(
        base.num_vertices, edges, weights=weights, vwgts=base.vwgts,
        combine="max",
    )


@dataclass
class AprioriParams:
    """Tunables of the a-priori partitioner."""

    prediction_radius: float = 0.6
    contact_edge_weight: int = 5
    virtual_edge_weight: int = 10
    pad: float = 0.0
    options: PartitionOptions = field(default_factory=PartitionOptions)


class AprioriPartitioner:
    """§3 first-class contact decomposition driver.

    Implements the :class:`~repro.core.partitioner.Partitioner`
    protocol.
    """

    #: method tag carried into :class:`PartitionResult`
    method = "apriori"

    def __init__(self, k: int, params: Optional[AprioriParams] = None):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.params = params or AprioriParams()
        self.part: Optional[np.ndarray] = None
        self.predicted_pairs: Optional[np.ndarray] = None

    def fit(
        self,
        snapshot: ContactSnapshot,
        tracer: Optional[TracerBase] = None,
        ledger: Optional[CommLedger] = None,
    ) -> PartitionResult:
        """Predict pairs, augment the graph, partition.

        The returned result's diagnostics carry ``edge_cut_final``,
        ``n_predicted_pairs``, and ``colocation_fraction``.
        """
        tracer = ensure_tracer(tracer)
        p = self.params
        with tracer.span("fit") as fit_span:
            self.predicted_pairs = predict_contact_pairs(
                snapshot, p.prediction_radius
            )
            graph = build_apriori_graph(
                snapshot, self.predicted_pairs,
                p.contact_edge_weight, p.virtual_edge_weight,
            )
            with tracer.span("partition"):
                self.part = partition_kway(
                    graph, self.k, p.options, tracer=tracer
                )
            diagnostics = {
                "edge_cut_final": edge_cut(graph, self.part),
                "n_predicted_pairs": int(len(self.predicted_pairs)),
                "colocation_fraction": self.colocation_fraction(),
            }
        return make_result(
            self.method, self.k, self.part, diagnostics,
            ledger, fit_span,
        )

    def colocation_fraction(self) -> float:
        """Fraction of predicted pairs whose endpoints landed in the
        same partition — the quantity the virtual edges maximise."""
        self._check_fitted()
        if len(self.predicted_pairs) == 0:
            return 1.0
        a = self.part[self.predicted_pairs[:, 0]]
        b = self.part[self.predicted_pairs[:, 1]]
        return float((a == b).mean())

    def search_plan(self, snapshot: ContactSnapshot) -> SearchPlan:
        """Tree-filtered global search on the a-priori partition (same
        machinery as MCML+DT — the decomposition differs, not the
        filter)."""
        self._check_fitted()
        faces = snapshot.contact_faces
        boxes = element_bboxes(snapshot.mesh.nodes, faces)
        if self.params.pad > 0:
            boxes = boxes.copy()
            boxes[:, 0] -= self.params.pad
            boxes[:, 1] += self.params.pad
        cn = snapshot.contact_nodes
        tree, _ = induce_pure_tree(
            snapshot.mesh.nodes[cn], self.part[cn], self.k
        )
        owner = face_owner_partition(self.part, faces)
        return tree_filter_search(tree, boxes, owner, self.k)

    def _check_fitted(self) -> None:
        if self.part is None:
            raise RuntimeError("call fit() before using the partitioner")
