"""Test-only oracles: the two MCML+DT sequence loops as they stood
before ``evaluate_mcml_dt`` ran through ``ContactStepDriver``.

The bodies are verbatim copies of the old ``pipeline.evaluate_mcml_dt``
(a from-scratch contact graph, descriptor tree and search plan every
step under a fixed partition), ``pipeline.evaluate_ml_rcb`` (a
from-scratch contact graph every step) and ``update.replay_sequence``
with its ``ReplayStep`` / ``ReplayResult`` containers (its own copy of
the §4.3 policy around a ``ContactGraphBuilder``). The differential
tests in ``test_update.py`` and ``test_pipeline.py`` assert that the
library versions return the same per-step values. Do not "fix" or
speed these up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.mcml_dt import MCMLDTParams, MCMLDTPartitioner
from repro.core.ml_rcb import MLRCBParams, MLRCBPartitioner
from repro.core.pipeline import SequenceResult, StepMetrics
from repro.core.update import UpdateStrategy, repartition_due
from repro.core.weights import ContactGraphBuilder, build_contact_graph
from repro.graph.metrics import load_imbalance
from repro.metrics.comm import fe_comm
from repro.obs.tracer import TracerBase, ensure_tracer
from repro.partition.repartition import diffusion_repartition
from repro.sim.sequence import MeshSequence


def evaluate_mcml_dt(
    seq: MeshSequence,
    k: int,
    params: Optional[MCMLDTParams] = None,
    tracer: Optional[TracerBase] = None,
) -> SequenceResult:
    """Run MCML+DT over ``seq`` with a fixed partition and per-step
    descriptor re-induction (the paper's §5 protocol)."""
    params = params or MCMLDTParams()
    tracer = ensure_tracer(tracer)
    pt = MCMLDTPartitioner(k, params)
    pt.fit(seq[0], tracer=tracer)
    result = SequenceResult(algorithm="MCML+DT", k=k)
    for snapshot in seq:
        graph = build_contact_graph(snapshot, params.contact_edge_weight)
        tree, _ = pt.build_descriptors(snapshot, tracer=tracer)
        plan = pt.search_plan(snapshot, tree, tracer=tracer)
        imb = load_imbalance(graph, pt.part, k)
        result.steps.append(
            StepMetrics(
                step=snapshot.step,
                fe_comm=fe_comm(graph, pt.part),
                nt_nodes=tree.n_nodes,
                n_remote=plan.n_remote,
                imbalance_fe=float(imb[0]),
                imbalance_search=float(imb[1]),
            )
        )
    return result



def evaluate_ml_rcb(
    seq: MeshSequence,
    k: int,
    params: Optional[MLRCBParams] = None,
    tracer: Optional[TracerBase] = None,
) -> SequenceResult:
    """Run ML+RCB over ``seq``: fixed graph partition, incremental RCB
    updates, bbox-filter search."""
    params = params or MLRCBParams()
    tracer = ensure_tracer(tracer)
    pt = MLRCBPartitioner(k, params)
    pt.fit(seq[0], tracer=tracer)
    result = SequenceResult(algorithm="ML+RCB", k=k)
    for snapshot in seq:
        if snapshot.step > 0:
            pt.update(snapshot, tracer=tracer)
        graph = build_contact_graph(snapshot)
        plan = pt.search_plan(snapshot, tracer=tracer)
        imb = load_imbalance(graph, pt.part_fe, k)
        result.steps.append(
            StepMetrics(
                step=snapshot.step,
                fe_comm=fe_comm(graph, pt.part_fe),
                n_remote=plan.n_remote,
                m2m_comm=pt.m2m_comm_now(tracer=tracer),
                upd_comm=pt.last_upd_comm,
                imbalance_fe=float(imb[0]),
            )
        )
    return result


@dataclass
class ReplayStep:
    """Per-step outcome of a replay."""

    step: int
    nt_nodes: int
    imbalance_fe: float
    imbalance_search: float
    n_moved: int  # vertices redistributed this step


@dataclass
class ReplayResult:
    """Full replay trace plus conveniences for the ablation bench."""

    strategy: UpdateStrategy
    k: int
    steps: List[ReplayStep] = field(default_factory=list)

    def mean_nt_nodes(self) -> float:
        """Mean descriptor-tree size across the replay."""
        return float(np.mean([s.nt_nodes for s in self.steps]))

    def max_imbalance(self) -> float:
        """Worst imbalance (either constraint) seen at any step."""
        return float(
            max(
                max(s.imbalance_fe, s.imbalance_search)
                for s in self.steps
            )
        )

    def total_moved(self) -> int:
        """Total vertices redistributed across the replay."""
        return int(sum(s.n_moved for s in self.steps))


def replay_sequence(
    seq: MeshSequence,
    k: int,
    strategy: UpdateStrategy,
    period: int = 10,
    params: Optional[MCMLDTParams] = None,
    tracer: Optional[TracerBase] = None,
) -> ReplayResult:
    """Replay ``seq`` under an update strategy, tracking tree size,
    balance drift, and redistribution volume."""
    if period < 1:
        raise ValueError("period must be >= 1")
    params = params or MCMLDTParams()
    tracer = ensure_tracer(tracer)
    pt = MCMLDTPartitioner(k, params)
    pt.fit(seq[0], tracer=tracer)
    result = ReplayResult(strategy=strategy, k=k)
    graphs = ContactGraphBuilder()
    steps_since_repartition = 0

    for snapshot in seq:
        moved = 0
        steps_since_repartition += 1
        due = repartition_due(strategy, steps_since_repartition, period)
        graph = graphs.build(snapshot, params.contact_edge_weight)
        if due and result.steps:
            with tracer.span("repartition"):
                rep = diffusion_repartition(
                    graph, pt.part, k, params.options
                )
                moved = rep.n_moved
                tracer.count("vertices_moved", moved)
            pt.part = rep.part
            steps_since_repartition = 0
        tree, _ = pt.build_descriptors(snapshot, tracer=tracer)
        imb = load_imbalance(graph, pt.part, k)
        result.steps.append(
            ReplayStep(
                step=snapshot.step,
                nt_nodes=tree.n_nodes,
                imbalance_fe=float(imb[0]),
                imbalance_search=float(imb[1]) if len(imb) > 1 else 1.0,
                n_moved=moved,
            )
        )
    return result
