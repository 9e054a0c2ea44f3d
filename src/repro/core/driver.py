"""Production-facing time-stepping driver.

A simulation code integrating MCML+DT calls one object per run:

    driver = ContactStepDriver(k=16, strategy=UpdateStrategy.HYBRID)
    driver.initialize(first_snapshot)
    for snapshot in simulation:
        result = driver.step(snapshot)
        # result.candidates drives the local-search / force loop

Each ``step`` performs the §4.3 update policy (descriptor-only /
periodic repartition), re-induces the descriptor tree, runs the
parallel global search on the configured execution backend, optionally
resolves candidates with the local search, and accounts all
communication in one ledger that persists across the run — i.e. the
driver is the executable version of the paper's full per-iteration
pipeline. Pass ``backend="process:4"`` (or set ``$REPRO_BACKEND``) to
run the search ranks on a real worker pool; results are bit-identical
across backends.

A step recomputes only what its snapshot changed. The contact graph
comes from a :class:`~repro.core.weights.ContactGraphBuilder`, which
returns the previous step's graph (and, under unchanged labels, its
``fe_comm`` / imbalance) while connectivity and contact-node set stand
still, and the partitioner grafts the descriptor subtrees whose points
and labels did not move (``docs/ALGORITHMS.md``, "Carrying the graph
and the descriptor tree across snapshots"). Both are keyed on array
content and checked against from-scratch recomputation in
``tests/core/test_sequence_reuse.py``, so neither has a switch, is
checkpointed, or needs invalidating: after a restore, a re-executed
step or an out-of-order snapshot the comparison simply fails or holds.

A step runs once. A lost worker is recovered inside the execution
backend's session (``docs/FAULT_TOLERANCE.md``); any other failure,
a :class:`~repro.runtime.backends.base.BackendError` included,
propagates out of :meth:`ContactStepDriver.step` and leaves
``history`` untouched. A caller that wants a restart point per step
writes one with :func:`repro.core.checkpoint.save_driver`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.core.contact_search import parallel_contact_search
from repro.core.local_search import (
    ContactResolution,
    resolve_candidates,
)
from repro.core.mcml_dt import MCMLDTParams, MCMLDTPartitioner
from repro.core.update import UpdateStrategy, repartition_due
from repro.core.weights import ContactGraphBuilder
from repro.obs.tracer import TracerBase, ensure_tracer
from repro.partition.repartition import diffusion_repartition
from repro.runtime.backends import resolve_backend
from repro.runtime.backends.base import BackendLike
from repro.runtime.ledger import CommLedger
from repro.sim.sequence import ContactSnapshot
from repro.utils.validation import check_finite


@dataclass
class StepResult:
    """Everything one driver step produced."""

    step: int
    nt_nodes: int
    n_remote: int
    fe_comm: int
    imbalance: np.ndarray
    repartitioned: bool
    n_moved: int
    candidates: Set[Tuple[int, int]]
    resolution: Optional[ContactResolution] = None

    @property
    def n_candidates(self) -> int:
        """Number of candidate (element, node) contact pairs found."""
        return len(self.candidates)


class ContactStepDriver:
    """Stateful per-time-step contact pipeline (see module docstring)."""

    def __init__(
        self,
        k: int,
        params: Optional[MCMLDTParams] = None,
        strategy: UpdateStrategy = UpdateStrategy.DESCRIPTOR_ONLY,
        repartition_period: int = 10,
        resolve_local: bool = True,
        tracer: Optional[TracerBase] = None,
        backend: BackendLike = None,
    ):
        if k < 1:
            raise ValueError("k must be >= 1")
        if repartition_period < 1:
            raise ValueError("repartition_period must be >= 1")
        self.k = k
        self.params = params or MCMLDTParams()
        self.strategy = strategy
        self.repartition_period = repartition_period
        self.resolve_local = resolve_local
        self.backend = resolve_backend(backend)
        self.partitioner = MCMLDTPartitioner(k, self.params)
        self.graphs = ContactGraphBuilder()
        self.ledger = CommLedger()
        self.tracer = ensure_tracer(tracer)
        self.history: List[StepResult] = []
        self._initialized = False
        self._steps_since_repartition = 0

    # ------------------------------------------------------------------
    def initialize(self, snapshot: ContactSnapshot) -> "ContactStepDriver":
        """Fit the decomposition on the first snapshot."""
        self.partitioner.fit(snapshot, tracer=self.tracer)
        self._initialized = True
        self._steps_since_repartition = 0
        return self

    def step(self, snapshot: ContactSnapshot) -> StepResult:
        """Run one contact-detection time step.

        A snapshot with a non-finite contact-node coordinate raises
        :class:`ValueError` before anything is computed or booked. A
        step that raises (a :class:`BackendError` included) appends
        nothing to ``history``.
        """
        if not self._initialized:
            raise RuntimeError("call initialize() before step()")
        # refused before any state moves: a bad snapshot books no
        # exchange, no repartition and no history entry
        check_finite(
            "snapshot contact-node coordinates",
            snapshot.mesh.nodes[snapshot.contact_nodes],
        )
        with self.tracer.span("step"):
            result = self._step_traced(snapshot)
        self.history.append(result)
        return result

    def _set_state(
        self, part: np.ndarray, ledger: CommLedger, steps: int
    ) -> None:
        """Install the state a checkpoint holds: partition vector,
        ledger, steps since the last repartition."""
        self.partitioner.part = part
        self.ledger = ledger
        self._steps_since_repartition = steps
        self._initialized = True

    def _step_traced(self, snapshot: ContactSnapshot) -> StepResult:
        tracer = self.tracer
        pt = self.partitioner
        with tracer.span("build-graph"):
            graph = self.graphs.build(
                snapshot, self.params.contact_edge_weight, tracer=tracer
            )

        # §4.3 update policy
        repartitioned = False
        n_moved = 0
        self._steps_since_repartition += 1
        due = repartition_due(
            self.strategy,
            self._steps_since_repartition,
            self.repartition_period,
        )
        if due and self.history:
            with tracer.span("repartition"):
                rep = diffusion_repartition(
                    graph, pt.part, self.k, self.params.options
                )
                pt.part = rep.part
                n_moved = rep.n_moved
                tracer.count("vertices_moved", n_moved)
            repartitioned = True
            self._steps_since_repartition = 0
            # account the redistribution (items = vertices moved; the
            # destinations are known, the source rank ships each)
            if n_moved:
                self.ledger.record("repartition", 0, 1, n_moved)

        # descriptor update + global search
        tree, _ = pt.build_descriptors(snapshot, tracer=tracer)
        boxes = pt.contact_boxes(snapshot)
        plan = pt.search_plan(snapshot, tree, tracer=tracer, boxes=boxes)
        coords = snapshot.mesh.nodes[snapshot.contact_nodes]
        candidates, _ = parallel_contact_search(
            plan, boxes, snapshot.contact_faces, coords,
            snapshot.contact_nodes, pt.part[snapshot.contact_nodes],
            self.k, ledger=self.ledger, tracer=tracer,
            backend=self.backend,
        )

        resolution = None
        if self.resolve_local:
            with tracer.span("local-search"):
                resolution = resolve_candidates(
                    snapshot.mesh.nodes, snapshot.contact_faces,
                    sorted(candidates),
                )

        comm, imbalance = self.graphs.measure(pt.part, self.k)
        return StepResult(
            step=snapshot.step,
            nt_nodes=tree.n_nodes,
            n_remote=plan.n_remote,
            fe_comm=comm,
            imbalance=imbalance,
            repartitioned=repartitioned,
            n_moved=n_moved,
            candidates=candidates,
            resolution=resolution,
        )

    # ------------------------------------------------------------------
    def run(self, snapshots) -> List[StepResult]:
        """Initialize on the first snapshot, then step every snapshot,
        the first included (its step measures the fitted partition)."""
        snapshots = list(snapshots)
        if not snapshots:
            raise ValueError("need at least one snapshot")
        self.initialize(snapshots[0])
        return [self.step(s) for s in snapshots]

    def total_exchanged(self) -> int:
        """Surface elements shipped across the whole run."""
        return self.ledger.items("contact-exchange")
