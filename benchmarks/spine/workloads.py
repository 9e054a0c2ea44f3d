"""The four workloads, measured with tracing off.

Every workload is closed-loop from this one process on the serial
backend: the next operation starts when the previous one returned.
The only concurrency is ``service_mix``'s 2-thread burst against the
service's 2 workers, matching the 2 cores the benchmark is sized for.

Each workload reports the same end-to-end metrics (``BENCHMARK.json``):
``partition_s`` is the operation that *produces* a partition,
``op_ms_p50`` the frequent operation that *uses* one, ``pass_s`` the
sum of a pass's timed operations, and the four quality numbers
describe the partitions the pass produced.  What fills each slot per
workload is tabulated in ``README.md``.

Timing is best-of-passes per operation.  A pass is a fixed sequence of
operations, so the i-th operation of every pass does the same work;
its time is the minimum over the run's passes, and the metrics
aggregate those (median over the operations for a p50, sum for a
pass).  Between operations the run samples the machine-speed
reference (``speed.py``) that ``run.py`` scales every time by; why
both exist is in ``README.md``.
"""

from __future__ import annotations

import io
import resource
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.checkpoint import dump_driver_bytes, load_driver
from repro.core.contact_search import (
    parallel_contact_search,
    serial_candidate_pairs,
)
from repro.core.driver import ContactStepDriver
from repro.core.mcml_dt import MCMLDTPartitioner
from repro.core.ml_rcb import MLRCBParams, MLRCBPartitioner
from repro.core.update import UpdateStrategy
from repro.core.weights import build_contact_graph
from repro.geometry.bbox import element_bboxes
from repro.graph.digest import digest_arrays
from repro.graph.metrics import edge_cut
from repro.mesh.nodal_graph import nodal_graph
from repro.metrics.comm import fe_comm
from repro.service.client import ServiceClient, ServiceError
from repro.service.engine import EngineConfig
from repro.service.http import ServerThread
from repro.sim.projectile import ImpactConfig
from repro.sim.sequence import ContactSnapshot, simulate_impact

from benchmarks.spine import inputs
from benchmarks.spine.results import Metrics
from benchmarks.spine.speed import SpeedReference

#: the driver's contract wants set-up repeated inside a run and its
#: median reported, so that one slow build does not move ``setup_s``
SETUP_REPS = 3
FIT_KS = (8, 25)
#: a run makes at least two fit passes whatever ``--seconds`` says:
#: with one, "every rep yields the same labels" compares a fit with
#: itself and ``partition_s`` is a best-of-one
FIT_MIN_PASSES = 2
READ_SWEEPS = 2
STEP_K = 8
MLRCB_K = 25
REPARTITION_PERIOD = 10
BURST_REQUESTS, BURST_THREADS = 8, 2
#: config of the burst's request: distinct from every cold job (a new
#: cache key) and identical across the burst (one coalesced fit)
BURST_CONFIG = {"contact_edge_weight": 4}
CONTACT_STEPS = 20

_now = time.perf_counter


class Outcome:
    """What one workload run produced."""

    def __init__(self) -> None:
        self.metrics = Metrics()
        self.speed = SpeedReference()
        self.diagnostics: Dict[str, Any] = {}
        self.checks: Dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok) and self.checks.get(name, True)

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


def timed_setup(
    out: Outcome, build: Callable[[], Any]
) -> Tuple[Any, List[float]]:
    """Generate the inputs ``SETUP_REPS`` times; the set-up metric
    takes the median."""
    walls, built = [], None
    for _ in range(SETUP_REPS):
        out.speed.tick()
        t0 = _now()
        built = build()
        walls.append(_now() - t0)
    out.speed.tick()
    return built, walls


#: one pass's walls: operation class -> seconds, in pass order
Walls = Dict[str, List[float]]


def repeat_passes(
    one_pass: Callable[[], Walls], seconds: float, fixed: Optional[int],
    at_least: int = 1,
) -> Dict[str, np.ndarray]:
    """Run whole passes for about ``seconds`` but ``at_least`` that
    many (or exactly ``fixed``): another pass starts only while half
    of it still fits, so the pass count does not flip when a pass is
    close to a divisor of ``seconds``.  Returns, per operation class,
    a passes × operations array of walls."""
    passes: List[Walls] = []
    start = _now()
    while True:
        passes.append(one_pass())
        elapsed = _now() - start
        if fixed is not None:
            done = len(passes) >= fixed
        else:
            done = (len(passes) >= at_least
                    and elapsed + 0.5 * elapsed / len(passes) > seconds)
        if done:
            return {
                name: np.array([p[name] for p in passes])
                for name in passes[0]
            }


def best(walls: np.ndarray) -> np.ndarray:
    """Each operation's minimum over the passes."""
    return walls.min(axis=0)


def padded_boxes(snapshot: ContactSnapshot) -> np.ndarray:
    boxes = element_bboxes(snapshot.mesh.nodes, snapshot.contact_faces)
    boxes[:, 0] -= inputs.PAD
    boxes[:, 1] += inputs.PAD
    return boxes


def serial_pairs(snapshot: ContactSnapshot) -> set:
    """The brute-force oracle the parallel search must equal."""
    return serial_candidate_pairs(
        padded_boxes(snapshot), snapshot.contact_faces,
        snapshot.mesh.nodes[snapshot.contact_nodes], snapshot.contact_nodes,
    )


def check_labels(out: Outcome, tag: str, labels: Any, k: int, n: int) -> None:
    labels = np.asarray(labels)
    out.check(
        f"{tag}: n labels in [0,k), no empty part",
        len(labels) == n and labels.min() >= 0 and labels.max() < k
        and len(np.unique(labels)) == k,
    )


def check_fit_balance(out: Outcome, tag: str, imbalance: Any) -> None:
    limit = inputs.partition_options().ubfactor + 0.01
    out.check(
        f"{tag}: imbalance <= ubfactor + 0.01 per constraint",
        float(np.max(imbalance)) <= limit,
    )


def finish(
    out: Outcome, boot_s: float, setup_walls: List[float], prep_s: float,
    walls: Dict[str, np.ndarray],
) -> None:
    m = out.metrics
    m.samples(
        "setup_s", "s", setup_walls,
        value=boot_s + statistics.median(setup_walls) + prep_s,
    )
    per_pass = sum(w.sum(axis=1) for w in walls.values())
    m.samples("pass_s", "s", per_pass,
              value=sum(best(w).sum() for w in walls.values()))
    m.value(
        "peak_rss_mb", "MB",
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    out.attempted += sum(w.size for w in walls.values())
    out.speed.tick()
    out.diagnostics["boot_s"] = boot_s
    out.diagnostics["passes"] = len(per_pass)
    out.diagnostics["pass_s_median"] = statistics.median(per_pass)


# ----------------------------------------------------------------------
# fit_paper
# ----------------------------------------------------------------------


def fit_paper(
    seed: int, seconds: float, scale: inputs.Scale, boot_s: float
) -> Outcome:
    """MCML+DT fits at k=8 and k=25, interleaved; each fitted
    partition is then read the way Table 1 reads it (descriptor tree +
    search plan on every tenth snapshot)."""
    out = Outcome()
    seq, setup_walls = timed_setup(
        out, lambda: inputs.build_sequence(seed, scale)
    )
    evals = [seq[i] for i in inputs.eval_indices(len(seq))]
    fits: List[Tuple[int, Any, List[int]]] = []

    def one_pass() -> Walls:
        walls: Walls = {}
        for k in FIT_KS:
            pt = MCMLDTPartitioner(k, inputs.mcml_params())
            t0 = _now()
            result = pt.fit(seq[0])
            walls[f"fit_k{k}"] = [_now() - t0]
            out.speed.tick()
            # a run has room for few passes, so the cheap reads are
            # swept inside each: every snapshot keeps its fastest
            sweeps = []
            for _ in range(READ_SWEEPS):
                reads, remote = [], []
                for snap in evals:
                    t0 = _now()
                    tree, _ = pt.build_descriptors(snap)
                    plan = pt.search_plan(snap, tree)
                    reads.append(_now() - t0)
                    remote.append(plan.n_remote)
                sweeps.append(reads)
                out.speed.tick()
            walls[f"read_k{k}"] = list(best(np.array(sweeps)))
            fits.append((k, result, remote))
        return walls

    walls = repeat_passes(one_pass, seconds, scale.passes, FIT_MIN_PASSES)

    graphs = [build_contact_graph(snap) for snap in evals]
    n = seq.num_nodes
    out.check("fit: at least two fits per k to compare",
              len(fits) >= 2 * len(FIT_KS))
    first: Dict[int, Any] = {}
    for k, result, _ in fits:
        digest = digest_arrays({"part": result.labels})
        ref = first.setdefault(k, (digest, result))
        out.check(f"fit k={k}: every rep yields the same labels",
                  digest == ref[0])
        check_labels(out, f"fit k={k}", result.labels, k, n)
        check_fit_balance(
            out, f"fit k={k}", result.diagnostics["imbalance_final"]
        )
    # k=8 and k=25 differ by design, so each slot is the mean of the
    # two k's values (a pooled median would sit between the two modes)
    # and carries them as parts, which ``compare`` gates one by one: in
    # the mean, a gain at one k hides a loss at the other
    fit_s = {f"k{k}": float(best(walls[f"fit_k{k}"])[0]) for k in FIT_KS}
    read_s = {
        f"k{k}": statistics.median(best(walls[f"read_k{k}"])) for k in FIT_KS
    }
    cuts = {
        f"k{k}": first[k][1].diagnostics["edge_cut_final"] for k in FIT_KS
    }
    m = out.metrics
    m.samples(
        "partition_s", "s",
        np.concatenate([walls[f"fit_k{k}"].ravel() for k in FIT_KS]),
        value=statistics.fmean(fit_s.values()), parts=fit_s,
    )
    m.samples(
        "op_ms_p50", "ms",
        np.concatenate([walls[f"read_k{k}"].ravel() for k in FIT_KS]), 1e3,
        value=statistics.fmean(read_s.values()), parts=read_s,
    )
    m.value("edge_cut", "count", statistics.fmean(cuts.values()), parts=cuts)
    m.value("imbalance_max", "ratio", max(
        float(np.max(r.diagnostics["imbalance_final"])) for _, r, _ in fits
    ))
    m.value("fe_side_comm_mean", "count", statistics.fmean(
        fe_comm(g, first[k][1].labels) for k in FIT_KS for g in graphs
    ))
    m.value("n_remote_mean", "count", statistics.fmean(
        x for _, _, remote in fits[:len(FIT_KS)] for x in remote
    ))
    finish(out, boot_s, setup_walls, 0.0, walls)
    return out


# ----------------------------------------------------------------------
# steps_paper
# ----------------------------------------------------------------------


def new_step_driver(tracer: Any = None) -> ContactStepDriver:
    return ContactStepDriver(
        STEP_K, inputs.mcml_params(), strategy=UpdateStrategy.HYBRID,
        repartition_period=REPARTITION_PERIOD, backend="serial",
        tracer=tracer,
    )


def steps_paper(
    seed: int, seconds: float, scale: inputs.Scale, boot_s: float
) -> Outcome:
    """The whole snapshot sequence through ``ContactStepDriver``; the
    k=8 fit is set-up, and every pass restarts from a checkpoint of
    the fitted driver."""
    out = Outcome()
    seq, setup_walls = timed_setup(
        out, lambda: inputs.build_sequence(seed, scale)
    )
    t0 = _now()
    fitted = new_step_driver().initialize(seq[0])
    checkpoint = dump_driver_bytes(fitted)
    prep_s = _now() - t0
    to_check = set(inputs.check_indices(len(seq)))
    passes: List[Tuple[str, int, List[Any]]] = []

    def one_pass() -> Walls:
        driver = load_driver(io.BytesIO(checkpoint), backend="serial")
        walls: Walls = {"repartition": [], "step": []}
        results = []
        for snap in seq:
            t0 = _now()
            result = driver.step(snap)
            walls["repartition" if result.repartitioned else "step"].append(
                _now() - t0
            )
            out.speed.tick()
            if not passes and snap.step in to_check:
                out.check(
                    "steps: parallel search equals the serial oracle",
                    result.candidates == serial_pairs(snap),
                )
            results.append(result)
        passes.append((
            digest_arrays({"part": driver.partitioner.part}),
            sum(r.n_candidates for r in results),
            results,
        ))
        if len(passes) == 1:
            out.diagnostics["edge_cut_end"] = edge_cut(
                build_contact_graph(seq[-1]), driver.partitioner.part
            )
            check_labels(out, "steps", driver.partitioner.part, STEP_K,
                         seq.num_nodes)
        return walls

    walls = repeat_passes(one_pass, seconds, scale.passes)

    digest, candidates, results = passes[0]
    out.check("steps: contact candidates > 0", candidates > 0)
    out.check(
        "steps: every pass yields the same labels and candidates",
        all(p[:2] == (digest, candidates) for p in passes),
    )
    check_fit_balance(
        out, "steps pre-fit", fitted.partitioner.diagnostics.imbalance_final
    )
    m = out.metrics
    m.samples("partition_s", "s", walls["repartition"].ravel(),
              value=statistics.median(best(walls["repartition"])))
    m.samples("op_ms_p50", "ms", walls["step"].ravel(), 1e3,
              value=statistics.median(best(walls["step"])))
    m.value("edge_cut", "count", out.diagnostics["edge_cut_end"])
    m.value("imbalance_max", "ratio", max(
        float(r.imbalance.max()) for r in results if r.repartitioned
    ))
    m.value("fe_side_comm_mean", "count",
            statistics.fmean(r.fe_comm for r in results))
    m.value("n_remote_mean", "count",
            statistics.fmean(r.n_remote for r in results))
    out.diagnostics.update(
        prefit_k8_s=prep_s,
        candidates_total=candidates,
        vertices_moved=sum(r.n_moved for r in results),
        imbalance_worst_between_repartitions=max(
            float(r.imbalance.max()) for r in results
        ),
    )
    finish(out, boot_s, setup_walls, prep_s, walls)
    return out


# ----------------------------------------------------------------------
# mlrcb_paper
# ----------------------------------------------------------------------


def mlrcb_paper(
    seed: int, seconds: float, scale: inputs.Scale, boot_s: float
) -> Outcome:
    """The paper's comparator: ML+RCB at k=25, fit then per snapshot
    ``update`` → ``search_plan`` → ``m2m_comm_now``."""
    out = Outcome()
    seq, setup_walls = timed_setup(
        out, lambda: inputs.build_sequence(seed, scale)
    )
    to_check = set(inputs.check_indices(len(seq)))
    passes: List[Tuple[str, Any, List[int], List[int]]] = []

    def one_pass() -> Walls:
        pt = MLRCBPartitioner(
            MLRCB_K,
            MLRCBParams(pad=inputs.PAD, options=inputs.partition_options()),
        )
        t0 = _now()
        result = pt.fit(seq[0])
        walls: Walls = {"fit": [_now() - t0], "step": []}
        out.speed.tick()
        remote, m2m = [], []
        for snap in seq:
            t0 = _now()
            if snap.step > 0:
                pt.update(snap)
            plan = pt.search_plan(snap)
            m2m.append(pt.m2m_comm_now())
            walls["step"].append(_now() - t0)
            out.speed.tick()
            remote.append(plan.n_remote)
            if not passes and snap.step in to_check:
                found, _ = parallel_contact_search(
                    plan, padded_boxes(snap), snap.contact_faces,
                    snap.mesh.nodes[snap.contact_nodes], snap.contact_nodes,
                    pt.rcb_labels, MLRCB_K, backend="serial",
                )
                out.check(
                    "mlrcb: parallel search equals the serial oracle",
                    found == serial_pairs(snap),
                )
        passes.append(
            (digest_arrays({"part": result.labels}), result, remote, m2m)
        )
        return walls

    walls = repeat_passes(one_pass, seconds, scale.passes)

    digest, result, remote, m2m = passes[0]
    out.check(
        "mlrcb: every pass yields the same labels and plans",
        all((p[0], p[2], p[3]) == (digest, remote, m2m) for p in passes),
    )
    check_labels(out, "mlrcb", result.labels, MLRCB_K, seq.num_nodes)
    check_fit_balance(out, "mlrcb", result.diagnostics["imbalance_final"])
    fe = statistics.fmean(
        fe_comm(build_contact_graph(seq[i]), result.labels)
        for i in inputs.eval_indices(len(seq))
    )
    m = out.metrics
    m.samples("partition_s", "s", walls["fit"].ravel(),
              value=best(walls["fit"])[0])
    m.samples("op_ms_p50", "ms", walls["step"].ravel(), 1e3,
              value=statistics.median(best(walls["step"])))
    m.value("edge_cut", "count", result.diagnostics["edge_cut_final"])
    m.value("imbalance_max", "ratio",
            float(np.max(result.diagnostics["imbalance_final"])))
    m.value("fe_side_comm_mean", "count", fe + 2.0 * statistics.fmean(m2m))
    m.value("n_remote_mean", "count", statistics.fmean(remote))
    out.diagnostics.update(
        fe_comm_mean=fe, m2m_comm_mean=statistics.fmean(m2m)
    )
    finish(out, boot_s, setup_walls, 0.0, walls)
    return out


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------


def service_snapshot(refine: float) -> ContactSnapshot:
    """What the service generates for ``inputs.service_source``."""
    src = inputs.service_source(refine)
    config = ImpactConfig(n_steps=src["n_steps"], refine=refine)
    return simulate_impact(config)[src["snapshot"]]


def run_job(
    client: ServiceClient, **request: Any
) -> Tuple[Optional[Dict[str, Any]], float]:
    """Submit → result, closed loop.  A result document exists only
    for a job that ended ``done``; a refused or errored job yields
    ``None``."""
    t0 = _now()
    try:
        record = client.submit(**request)
        result = client.result(record["id"], wait_s=120.0)
    except ServiceError:
        result = None
    return result, _now() - t0


def cold_request(index: int) -> Dict[str, Any]:
    refine, k, partitioner = inputs.COLD_JOBS[index]
    return dict(
        kind="partition", k=k, partitioner=partitioner,
        source=inputs.service_source(refine),
    )


def reference_graph(index: int, snapshots: Dict[float, ContactSnapshot]):
    """The graph the service partitioned for cold job ``index``."""
    refine, _, partitioner = inputs.COLD_JOBS[index]
    snap = snapshots[refine]
    if partitioner == "mcml-dt":
        return build_contact_graph(snap)
    return nodal_graph(snap.mesh)


def burst_jobs(client: ServiceClient) -> List[Optional[Dict[str, Any]]]:
    """``BURST_REQUESTS`` identical new requests from ``BURST_THREADS``
    closed-loop threads."""
    request = dict(cold_request(0), config=BURST_CONFIG)
    share = BURST_REQUESTS // BURST_THREADS
    with ThreadPoolExecutor(BURST_THREADS) as pool:
        futures = [
            pool.submit(
                lambda: [run_job(client, **request)[0] for _ in range(share)]
            )
            for _ in range(BURST_THREADS)
        ]
        return [result for f in futures for result in f.result()]


def service_mix(
    seed: int, seconds: float, scale: inputs.Scale, boot_s: float
) -> Outcome:
    """A fresh 2-worker server per pass and one client: four distinct
    cold partition jobs, cache-hit repeats of the first, one
    contact-step job, then a burst of identical new requests."""
    out = Outcome()
    refines = sorted({job[0] for job in inputs.COLD_JOBS})
    snapshots, setup_walls = timed_setup(
        out, lambda: {r: service_snapshot(r) for r in refines}
    )
    order = inputs.cold_job_order(seed)
    start_walls: List[float] = []
    passes: List[Tuple[Any, ...]] = []

    def one_pass() -> Walls:
        t0 = _now()
        server = ServerThread(EngineConfig(workers=2)).start()
        start_walls.append(_now() - t0)
        walls: Walls = {"cold": [], "cached": []}
        try:
            client = ServiceClient(server.address)
            cold: Dict[int, Dict[str, Any]] = {}
            for index in order:
                result, wall = run_job(client, **cold_request(index))
                out.failed += result is None
                walls["cold"].append(wall)
                out.speed.tick()
                if result is not None:
                    out.check("service: cold job is a cache miss",
                              result["cache"] == "miss")
                    cold[index] = result
            hits = 0
            for _ in range(scale.cached_repeats):
                result, wall = run_job(client, **cold_request(0))
                out.failed += result is None
                walls["cached"].append(wall)
                out.speed.tick()
                if result is not None:
                    hits += result["cache"] == "hit"
                if result is not None and 0 in cold:
                    out.check(
                        "service: cache-hit labels equal the cold labels",
                        result["labels"] == cold[0]["labels"],
                    )
            out.check("service: every repeat is a cache hit",
                      hits == scale.cached_repeats)
            contact, wall = run_job(
                client, kind="contact-step", k=STEP_K,
                source=inputs.service_source(1.0), steps=CONTACT_STEPS,
                config={"pad": inputs.PAD},
            )
            out.failed += contact is None
            walls["contact"] = [wall]
            out.speed.tick()

            fits_before = server.engine.fits_total
            t0 = _now()
            burst = burst_jobs(client)
            walls["burst"] = [_now() - t0]
            # the burst is timed as one operation but is 8 jobs
            out.attempted += len(burst) - 1
            out.failed += sum(r is None for r in burst)
            out.check(
                "service: the burst of identical requests runs one fit",
                server.engine.fits_total - fits_before == 1
                and len({str(r and r["labels"]) for r in burst}) == 1,
            )
        finally:
            server.stop()
        passes.append((cold, contact))
        return walls

    walls = repeat_passes(one_pass, seconds, scale.passes)

    out.check("service: every HTTP job ended done", not out.failed)
    if out.failed:
        # the metrics below read every job's result; a refused or
        # errored job leaves the run its counts and the timings
        finish(out, boot_s, setup_walls, statistics.median(start_walls),
               walls)
        return out
    cold, contact = passes[0]
    out.check(
        "service: every pass returns the same results",
        all(
            {i: r["labels"] for i, r in c.items()}
            == {i: r["labels"] for i, r in cold.items()}
            and ct["labels_digest"] == contact["labels_digest"]
            for c, ct in passes
        ),
    )
    cuts, fe, imbalance = [], [], []
    for index, result in cold.items():
        refine, k, _ = inputs.COLD_JOBS[index]
        graph = reference_graph(index, snapshots)
        labels = np.asarray(result["labels"])
        check_labels(out, f"service job {index}", labels, k,
                     snapshots[refine].mesh.num_nodes)
        check_fit_balance(out, f"service job {index}",
                          result["diagnostics"]["imbalance_final"])
        out.check(
            "service: reported edge cut matches a recount",
            edge_cut(graph, labels)
            == result["diagnostics"]["edge_cut_final"],
        )
        cuts.append(result["diagnostics"]["edge_cut_final"])
        fe.append(fe_comm(graph, labels))
        imbalance.append(max(result["diagnostics"]["imbalance_final"]))
    out.check("service: contact-step job found candidates",
              contact["n_candidates"] > 0)
    exchanged = contact["comm"]["contact-exchange"]["n_items"]
    m = out.metrics
    m.samples("partition_s", "s", walls["cold"].ravel(),
              value=statistics.fmean(best(walls["cold"])))
    m.samples("op_ms_p50", "ms", walls["cached"].ravel(), 1e3,
              value=statistics.median(best(walls["cached"])))
    m.value("edge_cut", "count", statistics.fmean(cuts))
    m.value("imbalance_max", "ratio", max(imbalance))
    m.value("fe_side_comm_mean", "count", statistics.fmean(fe))
    m.value("n_remote_mean", "count", exchanged / contact["steps"])
    out.diagnostics.update(
        job_cold_s=m.values["partition_s"]["value"],
        job_cached_ms_p95=m.values["op_ms_p50"]["p95"],
        job_contact_s=float(best(walls["contact"])[0]),
        burst_s=float(best(walls["burst"])[0]),
        contact_candidates=contact["n_candidates"],
    )
    finish(out, boot_s, setup_walls, statistics.median(start_walls), walls)
    return out


RUNNERS: Dict[str, Callable[..., Outcome]] = {
    "fit_paper": fit_paper,
    "steps_paper": steps_paper,
    "mlrcb_paper": mlrcb_paper,
    "service_mix": service_mix,
}
