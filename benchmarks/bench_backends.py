"""Execution backends head-to-head on the parallel contact search.

Runs the identical two-superstep global search (k=4 ranks) on the
serial, thread, and process backends over a synthetic impact mesh, and
registers the measured times for the session-end ``BENCH_backends.json``
report (``benchmarks/conftest.py``). The process backend's pool is
warmed before timing, so the numbers measure steady-state superstep
dispatch — the regime a driver loop (one search per time step) runs in.

Every backend must produce the *identical* candidate set and ledger —
asserted here, not just in the test suite, so the report can never show
a speedup over a wrong answer.

The process-vs-serial speedup is hardware-dependent: the search
superstep is dominated by per-rank KD-tree queries, which parallelise
across workers only when the machine has cores to run them
(``cpu_count`` is recorded in the report for exactly this reason).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.contact_search import parallel_contact_search
from repro.core.mcml_dt import MCMLDTParams, MCMLDTPartitioner
from repro.geometry.bbox import element_bboxes
from repro.obs.tracer import Tracer
from repro.runtime.backends import build_backend

from .conftest import record, register_result, strong_options

K = 4  # ranks
WORKERS = 4
PAD = 0.3
ROUNDS = 5


@pytest.fixture(scope="module")
def scene(bench_sequence):
    snap = bench_sequence[40]
    pt = MCMLDTPartitioner(
        K, MCMLDTParams(options=strong_options(), pad=PAD)
    ).fit(snap)
    plan = pt.search_plan(snap)
    boxes = element_bboxes(snap.mesh.nodes, snap.contact_faces)
    boxes[:, 0] -= PAD
    boxes[:, 1] += PAD
    coords = snap.mesh.nodes[snap.contact_nodes]
    point_part = pt.part[snap.contact_nodes]
    return snap, plan, boxes, coords, point_part


_reference = {}


def _run_backend(benchmark, scene, name):
    snap, plan, boxes, coords, point_part = scene
    backend = build_backend(name, workers=WORKERS)
    tracer = Tracer()

    def run():
        return parallel_contact_search(
            plan, boxes, snap.contact_faces, coords,
            snap.contact_nodes, point_part, K,
            backend=backend, tracer=tracer,
        )

    try:
        run()  # warm the pool / caches outside the timed region
        best = None
        timings = []
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            pairs, ledger = run()
            dt = time.perf_counter() - t0
            timings.append(dt)
            best = dt if best is None else min(best, dt)
        benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        backend.close()

    outcome = (frozenset(pairs), tuple(sorted(ledger.summary().items())))
    _reference.setdefault("outcome", outcome)
    assert outcome == _reference["outcome"], (
        f"{name} backend diverged from the first-run reference"
    )
    spans = {
        path: {
            "n_calls": span.n_calls,
            "total_ms": round(span.total_s * 1e3, 3),
        }
        for path, span in tracer.root.walk()
        if "global-search" in path
    }
    register_result(
        "backends",
        name,
        best_s=round(best, 6),
        mean_s=round(sum(timings) / len(timings), 6),
        rounds=ROUNDS,
        ranks=K,
        workers=WORKERS if name != "serial" else 1,
        candidates=len(pairs),
        exchanged=ledger.items("contact-exchange"),
        bytes_sent=getattr(backend, "bytes_sent", 0),
        bytes_recv=getattr(backend, "bytes_recv", 0),
        spans=spans,
    )
    record(
        benchmark, tracer=tracer, best_s=round(best, 6),
        candidates=len(pairs), backend=name,
    )


def test_backend_serial(benchmark, scene):
    _run_backend(benchmark, scene, "serial")


def test_backend_thread(benchmark, scene):
    _run_backend(benchmark, scene, "thread")


def test_backend_process(benchmark, scene):
    _run_backend(benchmark, scene, "process")
