"""The ML+RCB baseline (Plimpton/Attaway/Brown/Hendrickson, §3).

Two decoupled decompositions: a single-constraint multilevel graph
partition of the whole mesh for the FE phase, and an RCB partition of
the contact points for the search phase. Costs this incurs that
MCML+DT avoids:

* **M2MComm** — contact points whose two owners differ must be shipped
  between the decompositions before each phase (2× per iteration).
* **UpdComm** — as contact points move, the RCB decomposition is
  incrementally re-fit each step, and points that cross a shifted cut
  must migrate.

Its advantage: each decomposition is individually optimal (lower
FEComm than the two-constraint partition, compact RCB boxes for the
search).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.contact_search import face_owner_partition
from repro.core.partitioner import PartitionResult, make_result
from repro.geometry.bbox import element_bboxes
from repro.geometry.boxsearch import SearchPlan, bbox_filter_search
from repro.geometry.rcb import RCBTree, rcb_partition
from repro.mesh.nodal_graph import nodal_graph
from repro.metrics.mapping import m2m_comm, update_comm
from repro.obs.tracer import SPAN_MAP_TRANSFER, TracerBase, ensure_tracer
from repro.graph.metrics import edge_cut, load_imbalance
from repro.partition.config import PartitionOptions
from repro.partition.kway import partition_kway
from repro.runtime.ledger import CommLedger
from repro.sim.sequence import ContactSnapshot


@dataclass
class MLRCBParams:
    """Tunables of the baseline."""

    pad: float = 0.0  # contact capture distance added to element boxes
    options: PartitionOptions = field(default_factory=PartitionOptions)


class MLRCBPartitioner:
    """Stateful ML+RCB driver over a snapshot sequence.

    Implements the :class:`~repro.core.partitioner.Partitioner`
    protocol.
    """

    #: method tag carried into :class:`PartitionResult`
    method = "ml-rcb"

    def __init__(self, k: int, params: Optional[MLRCBParams] = None):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.params = params or MLRCBParams()
        self.part_fe: Optional[np.ndarray] = None
        self.rcb_tree: Optional[RCBTree] = None
        self.rcb_labels: Optional[np.ndarray] = None
        self.contact_ids: Optional[np.ndarray] = None
        self.last_upd_comm: int = 0

    # ------------------------------------------------------------------
    def fit(
        self,
        snapshot: ContactSnapshot,
        tracer: Optional[TracerBase] = None,
        ledger: Optional[CommLedger] = None,
    ) -> PartitionResult:
        """Build both decompositions from the first snapshot.

        Returns a :class:`~repro.core.partitioner.PartitionResult`
        whose ``labels`` are the FE decomposition and whose
        diagnostics carry ``edge_cut_initial``/``edge_cut_final``
        (equal — no reshape pass here), ``imbalance_final`` of the FE
        partition, and ``n_contact_points``/``rcb_leaves`` of the RCB
        side.
        """
        tracer = ensure_tracer(tracer)
        with tracer.span("fit") as fit_span:
            mesh = snapshot.mesh
            n = mesh.num_nodes
            with tracer.span("fe-partition"):
                vwgts = np.zeros((n, 1), dtype=np.int64)
                vwgts[mesh.used_nodes(), 0] = 1
                graph = nodal_graph(mesh, vwgts=vwgts)
                self.part_fe = partition_kway(
                    graph, self.k, self.params.options, tracer=tracer
                )

            with tracer.span("rcb"):
                cn = snapshot.contact_nodes
                coords = mesh.nodes[cn]
                self.rcb_labels, self.rcb_tree = rcb_partition(
                    coords, self.k
                )
            cut = edge_cut(graph, self.part_fe)
            diagnostics = {
                "edge_cut_initial": cut,
                "edge_cut_final": cut,
                "imbalance_final": load_imbalance(
                    graph, self.part_fe, self.k
                ),
                "n_contact_points": int(len(cn)),
                "rcb_leaves": int(self.rcb_labels.max()) + 1
                if len(cn)
                else 0,
            }
        self.contact_ids = cn.copy()
        self.last_upd_comm = 0
        return make_result(
            self.method, self.k, self.part_fe, diagnostics,
            ledger, fit_span,
        )

    def update(
        self,
        snapshot: ContactSnapshot,
        tracer: Optional[TracerBase] = None,
    ) -> np.ndarray:
        """Incremental RCB re-fit for a new snapshot.

        Re-solves each cut on the moved contact points (structure
        preserved), assigns the snapshot's contact nodes, and records
        **UpdComm** (points present in both steps that changed RCB
        owner).
        """
        self._check_fitted()
        tracer = ensure_tracer(tracer)
        with tracer.span("rcb-update"):
            cn = snapshot.contact_nodes
            coords = snapshot.mesh.nodes[cn]
            new_labels = self.rcb_tree.update(coords)
            self.last_upd_comm = update_comm(
                self.rcb_labels, new_labels, self.contact_ids, cn
            )
            tracer.count("upd_comm", self.last_upd_comm)
        self.rcb_labels = new_labels
        self.contact_ids = cn.copy()
        return new_labels

    # ------------------------------------------------------------------
    def m2m_comm_now(self, tracer: Optional[TracerBase] = None) -> int:
        """Contact points whose FE and RCB owners differ (after optimal
        RCB relabelling).

        With a recording ``tracer`` the mapping solve is timed under a
        ``map-transfer`` span — the per-iteration M2MComm cost the
        paper charges ML+RCB (and that MCML+DT avoids) as wall time,
        not just items.
        """
        self._check_fitted()
        tracer = ensure_tracer(tracer)
        with tracer.span(SPAN_MAP_TRANSFER):
            items = m2m_comm(
                self.part_fe[self.contact_ids], self.rcb_labels, self.k
            )
            tracer.count("items", items)
        return items

    def search_plan(
        self,
        snapshot: ContactSnapshot,
        tracer: Optional[TracerBase] = None,
    ) -> SearchPlan:
        """Bounding-box-filtered global search plan; elements are owned
        by their (majority) RCB partition, the decomposition that
        performs the search phase.

        The RCB labels belong to the snapshot of the last
        :meth:`fit`/:meth:`update`; a snapshot with other contact nodes
        raises :class:`ValueError` — call ``update(snapshot)`` first.
        """
        self._check_fitted()
        if not np.array_equal(snapshot.contact_nodes, self.contact_ids):
            raise ValueError(
                "snapshot's contact nodes differ from the RCB "
                "decomposition's; call update(snapshot) before "
                "search_plan(snapshot)"
            )
        tracer = ensure_tracer(tracer)
        with tracer.span("search-plan"):
            faces = snapshot.contact_faces
            boxes = element_bboxes(snapshot.mesh.nodes, faces)
            if self.params.pad > 0:
                boxes = boxes.copy()
                boxes[:, 0] -= self.params.pad
                boxes[:, 1] += self.params.pad
            rcb_of_node = np.full(
                snapshot.mesh.num_nodes, -1, dtype=np.int64
            )
            rcb_of_node[self.contact_ids] = self.rcb_labels
            owner = face_owner_partition(rcb_of_node, faces)
            coords = snapshot.mesh.nodes[self.contact_ids]
            plan = bbox_filter_search(
                boxes, owner, coords, self.rcb_labels, self.k
            )
            tracer.count("n_remote", plan.n_remote)
        return plan

    def _check_fitted(self) -> None:
        if self.part_fe is None:
            raise RuntimeError("call fit() before using the partitioner")
