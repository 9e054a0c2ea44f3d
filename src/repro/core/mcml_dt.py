"""MCML+DT: the paper's partitioning algorithm (§4).

Pipeline per fit:

1. Build the two-constraint contact graph (§4.2 weights).
2. Multi-constraint k-way partition → ``P``.
3. *Reshape* (§4.2): induce a bounded decision tree over all live mesh
   nodes; reassign every leaf's nodes to the leaf's majority partition
   (``P'``); collapse each leaf to one vertex (graph ``G'``); run
   multi-constraint rebalancing + refinement on ``G'`` so whole
   rectangular regions move between partitions; project back (``P''``,
   piecewise axis-parallel boundaries by construction).
4. Per snapshot, induce a *pure* tree on the contact points (§4.1) —
   the subdomain geometric descriptors — and filter the global search
   through it. The partitioner keeps the previous snapshot's tree in a
   :class:`~repro.dtree.induction.SubtreeMemo`, so a sequence of
   ``build_descriptors`` calls re-splits only the nodes whose points
   or labels changed; every tree equals from-scratch induction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.core.contact_search import face_owner_partition
from repro.core.partitioner import PartitionResult, make_result
from repro.core.weights import build_contact_graph
from repro.dtree.induction import (
    SubtreeMemo,
    induce_bounded_tree,
    induce_pure_tree,
    suggested_bounds,
)
from repro.dtree.query import tree_filter_search
from repro.dtree.tree import DecisionTree
from repro.geometry.bbox import element_bboxes
from repro.geometry.boxsearch import SearchPlan
from repro.graph.csr import CSRGraph
from repro.graph.metrics import edge_cut, load_imbalance
from repro.graph.ops import contract, induced_subgraph
from repro.obs.tracer import (
    SPAN_COLLAPSE,
    SPAN_DTREE_INDUCE,
    SPAN_FM,
    SPAN_GREEDY,
    SPAN_REBALANCE,
    SPAN_REFINE_GPRIME,
    TracerBase,
    ensure_tracer,
)
from repro.partition.config import PartitionOptions
from repro.partition.kway import partition_kway
from repro.partition.refine_kway import greedy_kway_refine, rebalance_kway
from repro.partition.refine_kway_fm import kway_fm_refine
from repro.runtime.ledger import CommLedger
from repro.sim.sequence import ContactSnapshot
from repro.utils.arrays import relabel_contiguous


@dataclass
class MCMLDTParams:
    """Tunables of MCML+DT (§4.2 and §5 defaults)."""

    contact_edge_weight: int = 5
    max_p: Optional[int] = None  # default: paper's recommended window
    max_i: Optional[int] = None
    margin_weight: float = 0.0  # §6 extension; 0 = paper's Eq. 1 only
    pad: float = 0.0  # contact capture distance added to element boxes
    reshape: bool = True  # False disables P→P'→P'' (ablation)
    options: PartitionOptions = field(default_factory=PartitionOptions)


@dataclass
class FitDiagnostics:
    """What happened inside one fit (exposed for ablations/tests)."""

    edge_cut_initial: int = 0
    edge_cut_final: int = 0
    imbalance_initial: Optional[np.ndarray] = None
    imbalance_reshaped: Optional[np.ndarray] = None
    imbalance_final: Optional[np.ndarray] = None
    reshape_tree_nodes: int = 0
    reshape_moved: int = 0
    max_p: int = 0
    max_i: int = 0


class MCMLDTPartitioner:
    """Stateful MCML+DT driver over a snapshot sequence.

    Implements the :class:`~repro.core.partitioner.Partitioner`
    protocol.
    """

    #: method tag carried into :class:`PartitionResult`
    method = "mcml-dt"

    def __init__(self, k: int, params: Optional[MCMLDTParams] = None):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.params = params or MCMLDTParams()
        self.part: Optional[np.ndarray] = None
        self.diagnostics = FitDiagnostics()
        # the last descriptor tree; content-keyed, so a new fit, an
        # assigned ``part`` or an out-of-order snapshot just misses
        self._descriptor_memo = SubtreeMemo()

    # ------------------------------------------------------------------
    def fit(
        self,
        snapshot: ContactSnapshot,
        tracer: Optional[TracerBase] = None,
        ledger: Optional[CommLedger] = None,
    ) -> PartitionResult:
        """Compute the contact-friendly multi-constraint partition.

        Returns a :class:`~repro.core.partitioner.PartitionResult`
        whose diagnostics carry the :class:`FitDiagnostics` keys
        (``edge_cut_initial``/``edge_cut_final``, the three imbalance
        vectors, ``reshape_tree_nodes``/``reshape_moved``,
        ``max_p``/``max_i``).

        With a recording ``tracer``, the fit opens a ``fit`` span with
        nested ``build-graph``, ``partition`` (→ ``coarsen`` /
        ``initial`` / ``refine``), ``dtree-induce``, ``collapse`` and
        ``refine-G'`` children (see ``docs/OBSERVABILITY.md``).
        """
        tracer = ensure_tracer(tracer)
        p = self.params
        with tracer.span("fit") as fit_span:
            with tracer.span("build-graph"):
                graph = build_contact_graph(snapshot, p.contact_edge_weight)
            with tracer.span("partition"):
                part = partition_kway(graph, self.k, p.options, tracer=tracer)
            diag = self.diagnostics = FitDiagnostics()
            diag.edge_cut_initial = edge_cut(graph, part)
            diag.imbalance_initial = load_imbalance(graph, part, self.k)

            if p.reshape and self.k > 1:
                part = self._reshape(snapshot, graph, part, diag, tracer)

            diag.edge_cut_final = edge_cut(graph, part)
            diag.imbalance_final = load_imbalance(graph, part, self.k)
            tracer.count("edgecut_initial", diag.edge_cut_initial)
            tracer.count("edgecut_final", diag.edge_cut_final)
            tracer.count("reshape_moved", diag.reshape_moved)
        self.part = part
        return make_result(
            self.method, self.k, part, vars(diag), ledger, fit_span
        )

    def _reshape(
        self,
        snapshot: ContactSnapshot,
        graph: CSRGraph,
        part: np.ndarray,
        diag: FitDiagnostics,
        tracer: TracerBase,
    ) -> np.ndarray:
        """P → P' (leaf-majority) → P'' (refine collapsed G')."""
        p = self.params
        mesh = snapshot.mesh
        used = mesh.used_nodes()
        coords = mesh.nodes[used]
        labels = part[used]

        def_max_p, def_max_i = suggested_bounds(len(used), self.k)
        max_p = p.max_p if p.max_p is not None else def_max_p
        max_i = p.max_i if p.max_i is not None else def_max_i
        diag.max_p, diag.max_i = max_p, max_i

        with tracer.span(SPAN_DTREE_INDUCE):
            tree, leaf_of = induce_bounded_tree(
                coords, labels, self.k, max_p=max_p, max_i=max_i,
                margin_weight=p.margin_weight,
            )
            tracer.count("tree_nodes", tree.n_nodes)
            tracer.count("tree_leaves", tree.n_leaves)
            tracer.count("tree_depth", tree.depth())
        diag.reshape_tree_nodes = tree.n_nodes

        with tracer.span(SPAN_COLLAPSE):
            # P': every point adopts its leaf's majority partition
            leaf_idx, _ = relabel_contiguous(leaf_of)
            n_leaves = int(leaf_idx.max()) + 1

            # collapse leaves into G' and refine so only whole regions
            # move
            sub, _ = induced_subgraph(graph, used)
            gprime = contract(sub, leaf_idx, n_leaves)
            leaf_part = np.empty(n_leaves, dtype=np.int64)
            leaf_part[leaf_idx] = tree.label[leaf_of]  # majority per leaf

            p_prime = leaf_part[leaf_idx]
            diag.imbalance_reshaped = load_imbalance(
                sub.with_vwgts(sub.vwgts), p_prime, self.k
            )

        with tracer.span(SPAN_REFINE_GPRIME):
            with tracer.span(SPAN_REBALANCE):
                leaf_part, _ = rebalance_kway(
                    gprime, leaf_part, self.k, p.options
                )
            with tracer.span(SPAN_GREEDY):
                leaf_part = greedy_kway_refine(
                    gprime, leaf_part, self.k, p.options
                )
            with tracer.span(SPAN_FM):
                leaf_part = kway_fm_refine(
                    gprime, leaf_part, self.k, p.options
                )

        new_part = part.copy()
        new_part[used] = leaf_part[leaf_idx]
        diag.reshape_moved = int(
            np.count_nonzero(new_part[used] != part[used])
        )
        return new_part

    # ------------------------------------------------------------------
    def build_descriptors(
        self,
        snapshot: ContactSnapshot,
        tracer: Optional[TracerBase] = None,
    ) -> Tuple[DecisionTree, np.ndarray]:
        """Pure search tree over the snapshot's contact points.

        Returns ``(tree, leaf_of_point)``; ``tree.n_nodes`` is NTNodes.
        Subtrees over points and labels the previous call also saw are
        taken from it (counter ``tree_nodes_reused``); the tree is the
        one a from-scratch induction returns.
        """
        self._check_fitted()
        tracer = ensure_tracer(tracer)
        cn = snapshot.contact_nodes
        coords = snapshot.mesh.nodes[cn]
        memo = self._descriptor_memo
        with tracer.span(SPAN_DTREE_INDUCE):
            tree, leaf_of = induce_pure_tree(
                coords,
                self.part[cn],
                self.k,
                margin_weight=self.params.margin_weight,
                memo=memo,
            )
            tracer.count("tree_nodes", tree.n_nodes)
            tracer.count("tree_nodes_reused", memo.n_grafted)
        return tree, leaf_of

    def contact_boxes(self, snapshot: ContactSnapshot) -> np.ndarray:
        """Bounding boxes of the snapshot's surface elements, grown by
        the capture distance ``params.pad`` (a fresh array)."""
        boxes = element_bboxes(snapshot.mesh.nodes, snapshot.contact_faces)
        if self.params.pad > 0:
            boxes[:, 0] -= self.params.pad
            boxes[:, 1] += self.params.pad
        return boxes

    def search_plan(
        self,
        snapshot: ContactSnapshot,
        tree: Optional[DecisionTree] = None,
        tracer: Optional[TracerBase] = None,
        boxes: Optional[np.ndarray] = None,
    ) -> SearchPlan:
        """Tree-filtered global search plan for the snapshot's surface
        elements (NRemote = ``plan.n_remote``).

        ``boxes`` are the snapshot's :meth:`contact_boxes` when the
        caller already has them (the step driver searches the same
        boxes right after planning); they are computed here otherwise.
        """
        self._check_fitted()
        tracer = ensure_tracer(tracer)
        if tree is None:
            tree, _ = self.build_descriptors(snapshot, tracer=tracer)
        with tracer.span("search-plan"):
            if boxes is None:
                boxes = self.contact_boxes(snapshot)
            owner = face_owner_partition(self.part, snapshot.contact_faces)
            plan = tree_filter_search(tree, boxes, owner, self.k)
            tracer.count("n_remote", plan.n_remote)
        return plan

    def _check_fitted(self) -> None:
        if self.part is None:
            raise RuntimeError("call fit() before using the partitioner")
