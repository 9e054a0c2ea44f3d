"""The traced pass: per-layer metrics from outside-in probes.

The program has no spans of its own yet, so the benchmark's
:class:`~benchmarks.spine.spans.SpanRecorder` wraps direct calls into
each layer's public functions, fed with inputs taken from the
workloads (the step-0 contact graph, every tenth snapshot, the fitted
k=8/k=25 partitions).  A fit and a driver step are replayed stage by
stage through those functions; what the replay's stages do not cover
is reported as the unattributed share.

Every traced run prints every per-layer metric, so the probe suite is
the same whichever workload is named; the name tags the spans and the
trace file.
"""

from __future__ import annotations

import io
import json
import resource
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

import numpy as np

from repro.core.checkpoint import (
    dump_driver_bytes,
    load_driver,
    restore_driver_state,
)
from repro.core.contact_search import (
    face_owner_partition,
    parallel_contact_search,
)
from repro.core.local_search import resolve_candidates
from repro.core.mcml_dt import MCMLDTPartitioner
from repro.core.ml_rcb import MLRCBParams, MLRCBPartitioner
from repro.core.weights import build_contact_graph
from repro.dtree.induction import (
    induce_bounded_tree,
    induce_pure_tree,
    suggested_bounds,
)
from repro.dtree.query import tree_filter_search
from repro.geometry.bbox import element_bboxes
from repro.geometry.boxsearch import bbox_filter_search, candidate_pairs
from repro.geometry.rcb import rcb_partition
from repro.graph.metrics import edge_cut, load_imbalance
from repro.graph.ops import contract, induced_subgraph
from repro.mesh.nodal_graph import nodal_graph
from repro.metrics.comm import fe_comm
from repro.obs.tracer import Tracer
from repro.partition.coarsen import coarsen
from repro.partition.fragments import absorb_fragments
from repro.partition.initial import initial_bisection
from repro.partition.kway import partition_kway
from repro.partition.multilevel import multilevel_bisection
from repro.partition.recursive import recursive_bisection
from repro.partition.refine_kway import greedy_kway_refine, rebalance_kway
from repro.partition.refine_kway_fm import kway_fm_refine
from repro.partition.repartition import diffusion_repartition
from repro.runtime.backends import build_backend
from repro.runtime.ledger import CommLedger
from repro.service.cache import result_cache_key
from repro.service.client import ServiceClient, ServiceError
from repro.service.engine import EngineConfig
from repro.service.http import ServerThread
from repro.service.schemas import SCHEMA_VERSION, validate_job_request
from repro.sim.projectile import ImpactConfig
from repro.sim.sequence import ContactSnapshot, MeshSequence, simulate_impact
from repro.utils.arrays import relabel_contiguous
from repro.utils.validation import check_csr_arrays

from benchmarks.spine import inputs, workloads
from benchmarks.spine.results import OUT_DIR
from benchmarks.spine.spans import SpanRecorder
from benchmarks.spine.workloads import FIT_KS, MLRCB_K, STEP_K, Outcome

#: 8 ranks on 2 workers, as many workers as the box has cores
RUNTIME_RANKS = 8
RUNTIME_SPECS = {
    "serial": "serial",
    "thread": "thread:2",
    "process": "process:2",
    "tcp": "tcp://127.0.0.1:0:2",
}
SUPERSTEPS = 50
SERVICE_POLLS = 50

_now = time.perf_counter


def _noop_step(ctx: Any, _arg: Any) -> int:
    """An empty superstep (module level: worker ranks import it)."""
    return ctx.rank


class Probe:
    """One traced run's state: the recorder, the metrics, and the
    per-name stage totals of the replay in progress."""

    def __init__(self, workload: str, scale: inputs.Scale) -> None:
        self.rec = SpanRecorder(workload)
        self.out = Outcome()
        self.reps = scale.probe_reps
        self.stage: Dict[str, float] = defaultdict(float)
        self.reference_s = 0.0

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        result, seconds = self.timed(name, fn, *args, **kwargs)
        self.stage[name] += seconds
        return result

    def timed(self, name: str, fn: Callable[..., Any], *args: Any,
              **kwargs: Any) -> Tuple[Any, float]:
        """``rec.call``, then a speed-reference sample if one is due."""
        timed = self.rec.call(name, fn, *args, **kwargs)
        self.sample_speed()
        return timed

    @contextmanager
    def group(self, name: str) -> Iterator[None]:
        """A span around several stages; its stage total leaves out
        the speed-reference sampling that fell inside it."""
        sampling = self.reference_s
        with self.rec.span(name) as record:
            yield
        self.stage[name] += (
            (record["end"] - record["start"]) - (self.reference_s - sampling)
        )

    def sample_speed(self) -> None:
        """The sampling gets its own span, so a replay's unattributed
        share and wall can leave it out."""
        if self.out.speed.due():
            _, seconds = self.rec.call("bench.speed_reference",
                                       self.out.speed.tick)
            self.reference_s += seconds

    def repeat(self, name: str, fn: Callable[..., Any], *args: Any,
               **kwargs: Any) -> Tuple[Any, List[float]]:
        """``probe_reps`` calls; returns the last result and the walls."""
        walls, result = [], None
        for _ in range(self.reps):
            result, seconds = self.timed(name, fn, *args, **kwargs)
            walls.append(seconds)
        return result, walls

    def ms(self, name: str, seconds: List[float]) -> None:
        self.out.metrics.samples(name, "ms", seconds, 1e3)

    def s(self, name: str, seconds: List[float]) -> None:
        self.out.metrics.samples(name, "s", seconds)

    def count(self, name: str, value: float, unit: str = "count") -> None:
        self.out.metrics.value(name, unit, value)


# ----------------------------------------------------------------------
# fit replay (MCMLDTPartitioner.fit, stage by stage)
# ----------------------------------------------------------------------


def replay_fit(p: Probe, snapshot: ContactSnapshot, k: int) -> np.ndarray:
    """``MCMLDTPartitioner(k).fit`` through the layers' public
    functions, one span per stage; fills ``p.stage``."""
    params = inputs.mcml_params()
    opts = params.options
    p.stage = defaultdict(float)
    with p.rec.span(f"fit.k{k}"):
        graph = p.call("graph.build_contact_graph", build_contact_graph,
                       snapshot, params.contact_edge_weight)
        with p.group("partition.partition_kway"):
            check_csr_arrays(graph)
            part = p.call("partition.recursive_bisection",
                          recursive_bisection, graph, k, opts)
            for _round in range(2):
                part, moved = p.call("partition.absorb_fragments",
                                     absorb_fragments, graph, part, k, opts)
                part, rebalanced = p.call("partition.rebalance_kway",
                                          rebalance_kway, graph, part, k, opts)
                p.stage["rebalance_moves"] += rebalanced
                part = p.call("partition.greedy_kway_refine",
                              greedy_kway_refine, graph, part, k, opts)
                if moved == 0:
                    break
            part = p.call("partition.kway_fm_refine", kway_fm_refine,
                          graph, part, k, opts)
        p.call("graph.edge_cut", edge_cut, graph, part)
        p.call("metrics.load_imbalance", load_imbalance, graph, part, k)

        # reshape: P -> P' (leaf majority) -> P'' (refine collapsed G')
        used = snapshot.mesh.used_nodes()
        max_p, max_i = suggested_bounds(len(used), k)
        tree, leaf_of = p.call(
            "dtree.induce_bounded_tree", induce_bounded_tree,
            snapshot.mesh.nodes[used], part[used], k, max_p=max_p,
            max_i=max_i, margin_weight=params.margin_weight,
        )
        p.stage["bounded_tree_nodes"] = tree.n_nodes
        node_labels = np.array([nd.label for nd in tree.nodes], np.int64)
        leaf_idx, _ = relabel_contiguous(leaf_of)
        n_leaves = int(leaf_idx.max()) + 1
        sub, _ = p.call("graph.induced_subgraph", induced_subgraph,
                        graph, used)
        gprime = p.call("graph.contract", contract, sub, leaf_idx, n_leaves)
        leaf_part = np.empty(n_leaves, dtype=np.int64)
        leaf_part[leaf_idx] = node_labels[leaf_of]
        p.call("metrics.load_imbalance", load_imbalance,
               sub.with_vwgts(sub.vwgts), leaf_part[leaf_idx], k)
        with p.group("partition.gprime_refine"):
            leaf_part, _ = p.call("partition.rebalance_kway.gprime",
                                  rebalance_kway, gprime, leaf_part, k, opts)
            leaf_part = p.call("partition.greedy_kway_refine.gprime",
                               greedy_kway_refine, gprime, leaf_part, k, opts)
            leaf_part = p.call("partition.kway_fm_refine.gprime",
                               kway_fm_refine, gprime, leaf_part, k, opts)
        new_part = part.copy()
        new_part[used] = leaf_part[leaf_idx]
        p.call("graph.edge_cut", edge_cut, graph, new_part)
        p.call("metrics.load_imbalance", load_imbalance, graph, new_part, k)
    return new_part


def probe_fits(p: Probe, seq: MeshSequence) -> Tuple[Any, bytes]:
    """A direct k=8 fit (the untraced reference), then the k=8 and
    k=25 replays.  Returns the fitted driver and its checkpoint."""
    t0 = _now()
    driver = workloads.new_step_driver().initialize(seq[0])
    direct_s = _now() - t0
    checkpoint = dump_driver_bytes(driver)
    parts = {}
    gprime, bounded_ms, bounded_nodes = [], [], []
    for k in FIT_KS:
        t0, sampling = _now(), p.reference_s
        parts[k] = replay_fit(p, seq[0], k)
        replay_s = (_now() - t0) - (p.reference_s - sampling)
        st = p.stage
        p.s(f"partition.recursive_bisection_k{k}_s",
            [st["partition.recursive_bisection"]])
        p.ms(f"partition.absorb_fragments_k{k}_ms",
             [st["partition.absorb_fragments"]])
        p.s(f"partition.rebalance_kway_k{k}_s",
            [st["partition.rebalance_kway"]])
        p.count(f"partition.rebalance_moves_k{k}", st["rebalance_moves"])
        p.ms(f"partition.greedy_kway_refine_k{k}_ms",
             [st["partition.greedy_kway_refine"]])
        p.ms(f"partition.kway_fm_refine_k{k}_ms",
             [st["partition.kway_fm_refine"]])
        p.s(f"partition.partition_kway_k{k}_s",
            [st["partition.partition_kway"]])
        gprime.append(st["partition.gprime_refine"])
        bounded_ms.append(st["dtree.induce_bounded_tree"])
        bounded_nodes.append(st["bounded_tree_nodes"])
        workloads.check_labels(p.out, f"replayed fit k={k}", parts[k], k,
                               seq.num_nodes)
        if k == STEP_K:
            p.out.check(
                "replayed k=8 fit equals MCMLDTPartitioner.fit",
                np.array_equal(parts[k], driver.partitioner.part),
            )
            p.count("bench.trace_overhead_pct",
                    100.0 * (replay_s - direct_s) / direct_s, "pct")
            p.out.diagnostics.update(
                fit_k8_direct_s=direct_s, fit_k8_replayed_s=replay_s
            )
    # one sample per k, and k=8 and k=25 differ by design: the mean
    m = p.out.metrics
    m.value("partition.gprime_refine_ms", "ms",
            1e3 * statistics.fmean(gprime), n=len(gprime))
    m.value("dtree.induce_bounded_ms", "ms",
            1e3 * statistics.fmean(bounded_ms), n=len(bounded_ms))
    p.count("dtree.bounded_tree_nodes", statistics.fmean(bounded_nodes))
    p.count("core.fit_unattributed_pct",
            p.rec.unattributed_pct(f"fit.k{STEP_K}"), "pct")
    return driver, checkpoint


# ----------------------------------------------------------------------
# graph / partition building blocks
# ----------------------------------------------------------------------


def probe_partition_blocks(
    p: Probe, evals: List[ContactSnapshot], part8: np.ndarray
) -> None:
    opts = inputs.partition_options()
    graphs, walls = [], []
    for snap in evals:
        graph, seconds = p.timed(
            "graph.build_contact_graph", build_contact_graph, snap
        )
        graphs.append(graph)
        walls.append(seconds)
    p.ms("graph.build_contact_graph_ms", walls)
    g0 = graphs[0]
    p.count("graph.nvtxs", g0.num_vertices)
    p.count("graph.nedges", g0.num_edges)

    hierarchy, walls = p.repeat("partition.coarsen", coarsen, g0, opts)
    p.s("partition.coarsen_s", walls)
    p.count("partition.coarsen_levels", len(hierarchy.levels))
    p.count("partition.coarsest_nvtxs", hierarchy.coarsest.num_vertices)
    finest = hierarchy.levels[0]
    n_coarse = int(finest.cmap.max()) + 1
    _, walls = p.repeat("graph.contract", contract, g0, finest.cmap, n_coarse)
    p.ms("graph.contract_ms", walls)
    _, walls = p.repeat(
        "partition.initial_bisection", initial_bisection,
        hierarchy.coarsest, 0.5, opts.n_init_trials, seed=opts.seed,
    )
    p.ms("partition.initial_bisection_ms", walls)
    _, walls = p.repeat("partition.multilevel_bisection",
                        multilevel_bisection, g0, 0.5, opts)
    p.s("partition.multilevel_bisection_s", walls)

    # the repartition steps' use of the layer: an existing partition
    # on an eroded graph
    eroded = graphs[len(graphs) // 2]
    moved, walls = p.repeat("partition.diffusion_repartition",
                            diffusion_repartition, eroded, part8, STEP_K, opts)
    p.ms("partition.diffusion_repartition_ms", walls)
    p.count("partition.repartition_moved", moved.n_moved)


# ----------------------------------------------------------------------
# step replay (ContactStepDriver.step, stage by stage)
# ----------------------------------------------------------------------


def probe_steps(
    p: Probe, seq: MeshSequence, evals: List[ContactSnapshot],
    driver: Any, checkpoint: bytes,
) -> None:
    params = inputs.mcml_params()
    part = driver.partitioner.part
    k = STEP_K
    checked = {seq[i].step for i in inputs.check_indices(len(seq))}
    p.stage = defaultdict(float)
    walls: Dict[str, List[float]] = defaultdict(list)
    nt_nodes = []

    def padded(nodes: np.ndarray, faces: np.ndarray) -> np.ndarray:
        boxes = p.call("geometry.element_bboxes", element_bboxes, nodes, faces)
        boxes[:, 0] -= inputs.PAD
        boxes[:, 1] += inputs.PAD
        return boxes

    for snap in evals:
        before = dict(p.stage)
        nodes, faces = snap.mesh.nodes, snap.contact_faces
        cn = snap.contact_nodes
        with p.rec.span("step"):
            graph = p.call("graph.build_contact_graph", build_contact_graph,
                           snap, params.contact_edge_weight)
            tree, _ = p.call("dtree.induce_pure_tree", induce_pure_tree,
                             nodes[cn], part[cn], k,
                             margin_weight=params.margin_weight)
            with p.group("core.search_plan"):
                boxes = padded(nodes, faces)
                owner = p.call("core.face_owner_partition",
                               face_owner_partition, part, faces)
                plan = p.call("dtree.tree_filter_search", tree_filter_search,
                              tree, boxes, owner, k)
            boxes = padded(nodes, faces)  # the driver computes them twice
            candidates, _ = p.call(
                "core.parallel_contact_search", parallel_contact_search,
                plan, boxes, faces, nodes[cn], cn, part[cn], k,
                backend="serial",
            )
            p.call("core.resolve_candidates",
                   lambda: resolve_candidates(nodes, faces,
                                              sorted(candidates)))
            p.call("metrics.fe_comm", fe_comm, graph, part)
            p.call("metrics.load_imbalance", load_imbalance, graph, part, k)
            blob = p.call("core.dump_driver_bytes", dump_driver_bytes, driver)
        for name, total in p.stage.items():
            walls[name].append(total - before.get(name, 0.0))
        nt_nodes.append(tree.n_nodes)
        if snap.step in checked:
            p.out.check("replayed step: search equals the serial oracle",
                        candidates == workloads.serial_pairs(snap))
        _, seconds = p.timed("geometry.candidate_pairs", candidate_pairs,
                                boxes, nodes[cn], cn)
        walls["geometry.candidate_pairs"].append(seconds)

    p.ms("dtree.induce_pure_ms", walls["dtree.induce_pure_tree"])
    p.count("dtree.nt_nodes_mean", statistics.fmean(nt_nodes))
    p.ms("dtree.tree_filter_search_ms", walls["dtree.tree_filter_search"])
    # two calls per step, as in the driver
    p.ms("geometry.element_bboxes_ms",
         [w / 2 for w in walls["geometry.element_bboxes"]])
    p.ms("geometry.candidate_pairs_ms", walls["geometry.candidate_pairs"])
    p.ms("core.search_plan_ms", walls["core.search_plan"])
    p.ms("core.contact_search_ms", walls["core.parallel_contact_search"])
    p.ms("core.local_search_ms", walls["core.resolve_candidates"])
    p.ms("core.checkpoint_ms", walls["core.dump_driver_bytes"])
    p.count("core.checkpoint_bytes", len(blob), "B")
    p.ms("metrics.fe_comm_ms", walls["metrics.fe_comm"])
    p.ms("metrics.load_imbalance_ms", walls["metrics.load_imbalance"])
    p.count("core.step_unattributed_pct", p.rec.unattributed_pct("step"),
            "pct")

    # one real pass: the tails, and what the search found and shipped
    with p.rec.span("core.driver_pass"):
        live = load_driver(io.BytesIO(checkpoint), backend="serial")
        step_walls, repart_walls, candidates_total = [], [], 0
        head = seq.snapshots[: max(2, (2 * len(seq)) // 5)]
        head_s = 0.0
        for snap in seq:
            t0 = _now()
            result = live.step(snap)
            wall = _now() - t0
            (repart_walls if result.repartitioned else step_walls).append(wall)
            candidates_total += result.n_candidates
            if snap.step < len(head):
                head_s += wall
            p.sample_speed()
    p.count("core.step_ms_p95", 1e3 * sorted(step_walls)[
        int(0.95 * len(step_walls))], "ms")
    p.count("core.repart_step_ms_p95", 1e3 * max(repart_walls), "ms")
    p.count("core.candidates_per_step", candidates_total / len(seq))
    p.count("core.exchanged_per_step", live.total_exchanged() / len(seq))
    p.out.check("driver pass: contact candidates > 0", candidates_total > 0)

    # the program's own tracer, switched on through the public argument
    with p.rec.span("obs.traced_driver_pass"):
        traced = workloads.new_step_driver(tracer=Tracer())
        restore_driver_state(traced, io.BytesIO(checkpoint))
        traced_s = 0.0
        for snap in head:
            t0 = _now()
            traced.step(snap)
            traced_s += _now() - t0
            p.sample_speed()
    p.count("obs.tracer_overhead_pct", 100.0 * (traced_s - head_s) / head_s,
            "pct")


# ----------------------------------------------------------------------
# ML+RCB's use of the layers
# ----------------------------------------------------------------------


def probe_mlrcb(p: Probe, seq: MeshSequence) -> None:
    opts = inputs.partition_options()
    snap0 = seq[0]
    mesh = snap0.mesh
    vwgts = np.zeros((mesh.num_nodes, 1), dtype=np.int64)
    vwgts[mesh.used_nodes(), 0] = 1
    graph = nodal_graph(mesh, vwgts=vwgts)
    part_fe, seconds = p.timed("partition.partition_kway_ncon1",
                                  partition_kway, graph, MLRCB_K, opts)
    p.s("partition.partition_kway_ncon1_k25_s", [seconds])
    coords = mesh.nodes[snap0.contact_nodes]
    (labels, tree), walls = p.repeat("geometry.rcb_partition", rcb_partition,
                                     coords, MLRCB_K)
    p.ms("geometry.rcb_partition_ms", walls)

    pt = MLRCBPartitioner(MLRCB_K, MLRCBParams(pad=inputs.PAD, options=opts))
    pt.part_fe, pt.rcb_tree, pt.rcb_labels = part_fe, tree, labels
    pt.contact_ids = snap0.contact_nodes.copy()
    update, plan, m2m, bbox = [], [], [], []
    for snap in seq.snapshots[1:11]:
        update.append(p.timed("core.mlrcb_update", pt.update, snap)[1])
        plan.append(p.timed("core.mlrcb_search_plan", pt.search_plan,
                               snap)[1])
        m2m.append(p.timed("core.mlrcb_m2m", pt.m2m_comm_now)[1])
        rcb_of_node = np.full(mesh.num_nodes, -1, dtype=np.int64)
        rcb_of_node[pt.contact_ids] = pt.rcb_labels
        owner = face_owner_partition(rcb_of_node, snap.contact_faces)
        bbox.append(p.timed(
            "geometry.bbox_filter_search", bbox_filter_search,
            workloads.padded_boxes(snap), owner,
            snap.mesh.nodes[pt.contact_ids], pt.rcb_labels, MLRCB_K,
        )[1])
    p.ms("core.mlrcb_update_ms", update)
    p.ms("core.mlrcb_search_plan_ms", plan)
    p.ms("core.mlrcb_m2m_ms", m2m)
    p.ms("geometry.bbox_filter_search_ms", bbox)


# ----------------------------------------------------------------------
# runtime backends
# ----------------------------------------------------------------------


def probe_runtime(p: Probe, snap: ContactSnapshot, part: np.ndarray) -> None:
    """What each backend adds per session, per superstep and per
    search, on the same plan; every backend must return the serial
    backend's pairs and ledger."""
    pt = MCMLDTPartitioner(STEP_K, inputs.mcml_params())
    pt.part = part
    plan = pt.search_plan(snap)
    boxes = workloads.padded_boxes(snap)
    cn = snap.contact_nodes

    def search(backend: Any) -> Tuple[Any, Any]:
        return parallel_contact_search(
            plan, boxes, snap.contact_faces, snap.mesh.nodes[cn], cn,
            part[cn], RUNTIME_RANKS, backend=backend,
        )

    expected = None
    for name, spec in RUNTIME_SPECS.items():
        with p.rec.span(f"runtime.{name}"):
            t0 = _now()
            backend = build_backend(spec)
            try:
                with backend.open_session(
                    RUNTIME_RANKS, ledger=CommLedger()
                ) as session:
                    session.step(_noop_step)  # workers up, handshake done
                    p.ms(f"runtime.{name}.open_ms", [_now() - t0])
                    moved = lambda: (  # noqa: E731
                        getattr(backend, "bytes_sent", 0)
                        + getattr(backend, "bytes_recv", 0)
                    )
                    bytes0, t0 = moved(), _now()
                    for _ in range(SUPERSTEPS):
                        session.step(_noop_step)
                    p.ms(f"runtime.{name}.superstep_ms",
                         [(_now() - t0) / SUPERSTEPS])
                    p.count(f"runtime.{name}.superstep_bytes",
                            (moved() - bytes0) / SUPERSTEPS, "B")
                search(backend)  # warm
                (pairs, ledger), walls = p.repeat(
                    f"runtime.{name}.search", search, backend
                )
                p.ms(f"runtime.{name}.search_ms", walls)
            finally:
                backend.close()
        if expected is None:
            expected = (pairs, ledger.summary())
        p.out.check(
            "backend probes match the serial pairs and ledger",
            (pairs, ledger.summary()) == expected,
        )


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------


def probe_service(p: Probe) -> None:
    out = p.out
    source = inputs.service_source(1.0)
    request = workloads.cold_request(0)
    document = {"schema": SCHEMA_VERSION, **request}

    with p.rec.span("service.http"):
        server = ServerThread(EngineConfig(workers=2)).start()
        try:
            client = ServiceClient(server.address)
            (cold, cold_s), _ = p.timed(
                "service.job_cold", workloads.run_job, client, **request
            )
            out.failed += cold is None
            health, submit, cached = [], [], []
            for _ in range(SERVICE_POLLS):
                health.append(p.timed("service.health", client.health)[1])
                try:
                    record, seconds = p.timed("service.submit", client.submit,
                                                 **request)
                    submit.append(seconds)
                    _, seconds = p.timed(
                        "service.result", client.result, record["id"],
                        wait_s=60.0,
                    )
                except ServiceError:
                    out.failed += 1
                    continue
                cached.append(submit[-1] + seconds)
            fits_before = server.engine.fits_total
            burst = p.call("service.burst", workloads.burst_jobs, client)
            out.failed += sum(result is None for result in burst)
            stats = server.engine.cache.stats
            p.count("service.coalesced_fits",
                    server.engine.fits_total - fits_before)
            p.count("service.cache_hit_ratio",
                    stats.hits / (stats.hits + stats.misses), "ratio")
        finally:
            server.stop()
    # the same request without the service, run second so that any
    # first-call warm-up is charged to the service, not to the library
    with p.rec.span("service.direct_reference"):
        t0 = _now()
        config = ImpactConfig(n_steps=source["n_steps"], refine=1.0)
        snapshot = simulate_impact(config)[source["snapshot"]]
        MCMLDTPartitioner(request["k"]).fit(snapshot)
        direct_s = _now() - t0
    _, walls = p.repeat("service.validate_job_request",
                        lambda: [validate_job_request(document)
                                 for _ in range(100)])
    p.ms("service.validate_request_ms", [w / 100 for w in walls])
    _, walls = p.repeat("service.result_cache_key", result_cache_key,
                        snapshot, request["partitioner"], request["k"], {})
    p.ms("service.cache_key_ms", walls)
    p.ms("service.health_ms_p50", health)
    p.ms("service.submit_ms_p50", submit)
    p.count("service.job_cached_ms_p95",
            1e3 * sorted(cached)[int(0.95 * len(cached))], "ms")
    p.count("service.result_bytes", len(json.dumps(cold)), "B")
    p.count("service.cold_overhead_ms", 1e3 * (cold_s - direct_s), "ms")
    p.count("service.jobs_failed", out.failed)
    out.check("service probe: the burst runs exactly one fit",
              out.metrics.values["service.coalesced_fits"]["value"] == 1)
    out.diagnostics.update(job_cold_s=cold_s, direct_sim_fit_s=direct_s)


# ----------------------------------------------------------------------


def run(workload: str, seed: int, scale: inputs.Scale) -> Outcome:
    """The traced pass; writes ``out/trace-<workload>.json``."""
    p = Probe(workload, scale)
    seq, seconds = p.timed("sim.simulate_impact", inputs.build_sequence,
                              seed, scale)
    p.s("sim.simulate_s", [seconds])
    evals = [seq[i] for i in inputs.eval_indices(len(seq))]

    driver, checkpoint = probe_fits(p, seq)
    part8 = driver.partitioner.part
    probe_partition_blocks(p, evals, part8)
    probe_steps(p, seq, evals, driver, checkpoint)
    probe_mlrcb(p, seq)
    probe_runtime(p, seq[len(seq) // 2], part8)
    probe_service(p)

    p.count("mem.peak_rss_mb",
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    p.out.attempted = len(p.rec.spans)
    p.rec.write(OUT_DIR / f"trace-{workload}.json")
    return p.out
