"""Update strategies across a snapshot sequence (paper §4.3).

Three ways to keep the decomposition current as nodes move and elements
erode:

* ``DESCRIPTOR_ONLY`` — partition fixed; only the search tree is
  re-induced each step (fast, no redistribution; tree may grow as the
  boundary geometry drifts away from axis-parallel).
* ``REPARTITION`` — multi-constraint diffusion repartitioning every
  step (balance stays tight; vertices migrate).
* ``HYBRID`` — repartition every ``period`` steps, descriptor-only in
  between (the paper's suggested optimum).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.mcml_dt import MCMLDTParams, MCMLDTPartitioner
from repro.core.weights import ContactGraphBuilder
from repro.graph.metrics import load_imbalance
from repro.obs.tracer import TracerBase, ensure_tracer
from repro.partition.repartition import diffusion_repartition
from repro.sim.sequence import MeshSequence


class UpdateStrategy(enum.Enum):
    """How the decomposition tracks the evolving mesh."""

    DESCRIPTOR_ONLY = "descriptor-only"
    REPARTITION = "repartition"
    HYBRID = "hybrid"


def repartition_due(
    strategy: UpdateStrategy, steps_since_repartition: int, period: int
) -> bool:
    """Whether the §4.3 policy repartitions on the current step.

    ``steps_since_repartition`` counts the current step: with
    ``period = 10`` HYBRID repartitions on the tenth step after the
    last repartition (or the fit), i.e. at steps 9, 19, … of a
    0-based sequence.  The first step of a run never repartitions —
    callers check that themselves (there is nothing to diffuse from).
    """
    return strategy is UpdateStrategy.REPARTITION or (
        strategy is UpdateStrategy.HYBRID
        and steps_since_repartition >= period
    )


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
