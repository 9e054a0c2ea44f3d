"""Distributed tcp backend measurements (loopback, 2 agents).

Two numbers matter for the socket transport and both land in
``BENCH_tcp.json`` (``benchmarks/conftest.py``):

* the parallel contact search end-to-end over sockets, asserted
  bit-identical to the serial run it is compared against (pairs and
  ledger), with the traffic the wire moved; and
* raw superstep dispatch overhead — the round-trip cost of shipping a
  trivial superstep to the fleet and merging its replies, which bounds
  how fine-grained distributed supersteps can be.

Loopback with locally spawned agents, so the measurement captures the
protocol cost (framing, pickling, scheduling), not network latency.
"""

from __future__ import annotations

import time
from functools import partial

import pytest

from repro.core.contact_search import parallel_contact_search
from repro.core.mcml_dt import MCMLDTParams, MCMLDTPartitioner
from repro.geometry.bbox import element_bboxes
from repro.obs.tracer import Tracer
from repro.runtime.backends import build_backend
from repro.runtime.backends.base import call_without_arg
from repro.runtime.ledger import CommLedger
from repro.sim.projectile import ImpactConfig
from repro.sim.sequence import simulate_impact

from .conftest import record, register_result, strong_options

K = 4  # ranks
WORKERS = 2
PAD = 0.3
ROUNDS = 3
TCP_SPEC = "tcp://127.0.0.1:0?accept_timeout=60"


@pytest.fixture(scope="module")
def scene():
    """A coarse impact snapshot (kept small: this module's job is to
    measure the transport, not the search)."""
    snap = simulate_impact(ImpactConfig(n_steps=12, refine=0.6))[8]
    pt = MCMLDTPartitioner(
        K, MCMLDTParams(options=strong_options(), pad=PAD)
    )
    pt.fit(snap)
    plan = pt.search_plan(snap)
    boxes = element_bboxes(snap.mesh.nodes, snap.contact_faces)
    boxes[:, 0] -= PAD
    boxes[:, 1] += PAD
    coords = snap.mesh.nodes[snap.contact_nodes]
    point_part = pt.part[snap.contact_nodes]
    return snap, plan, boxes, coords, point_part


def test_tcp_contact_search(benchmark, scene):
    snap, plan, boxes, coords, point_part = scene

    def search(backend, tracer=None):
        return parallel_contact_search(
            plan, boxes, snap.contact_faces, coords,
            snap.contact_nodes, point_part, K,
            backend=backend, tracer=tracer,
        )

    serial = build_backend("serial")
    try:
        expected_pairs, expected_ledger = search(serial)
    finally:
        serial.close()

    backend = build_backend(TCP_SPEC, workers=WORKERS)
    tracer = Tracer()
    try:
        search(backend)  # brings the fleet up outside the timed region
        best = None
        timings = []
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            pairs, ledger = search(backend, tracer=tracer)
            dt = time.perf_counter() - t0
            timings.append(dt)
            best = dt if best is None else min(best, dt)
        benchmark.pedantic(
            lambda: search(backend), rounds=1, iterations=1
        )
        bytes_sent, bytes_recv = backend.bytes_sent, backend.bytes_recv
    finally:
        backend.close()

    assert frozenset(pairs) == frozenset(expected_pairs), (
        "tcp backend diverged from the serial reference"
    )
    assert ledger.summary() == expected_ledger.summary()
    register_result(
        "tcp",
        "contact_search",
        best_s=round(best, 6),
        mean_s=round(sum(timings) / len(timings), 6),
        rounds=ROUNDS,
        ranks=K,
        workers=WORKERS,
        candidates=len(pairs),
        exchanged=ledger.items("contact-exchange"),
        bytes_sent=bytes_sent,
        bytes_recv=bytes_recv,
    )
    record(
        benchmark, tracer=tracer, best_s=round(best, 6),
        candidates=len(pairs), backend="tcp",
    )


def _noop_step(ctx):
    return ctx.rank


def _dispatch_steps(session, fn, steps):
    """The measured region: ``steps`` round-trips to the fleet (no
    clock reads in here — the caller times the whole call)."""
    for _ in range(steps):
        session.step(fn)


def test_tcp_step_dispatch_overhead(benchmark, scene):
    steps = 50
    backend = build_backend(TCP_SPEC, workers=WORKERS)
    try:
        with backend.open_session(K, ledger=CommLedger()) as session:
            fn = partial(call_without_arg, _noop_step)
            _dispatch_steps(session, fn, 1)  # open + handshake unbilled
            sent0, recv0 = backend.bytes_sent, backend.bytes_recv
            t0 = time.perf_counter()
            _dispatch_steps(session, fn, steps)
            elapsed = time.perf_counter() - t0
            per_step_bytes = (
                backend.bytes_sent - sent0 + backend.bytes_recv - recv0
            ) / steps
        benchmark.pedantic(
            lambda: None, rounds=1, iterations=1
        )
    finally:
        backend.close()

    per_step_ms = elapsed / steps * 1e3
    register_result(
        "tcp",
        "step_dispatch",
        steps=steps,
        per_step_ms=round(per_step_ms, 4),
        per_step_bytes=round(per_step_bytes, 1),
        ranks=K,
        workers=WORKERS,
    )
    record(
        benchmark, per_step_ms=round(per_step_ms, 4),
        per_step_bytes=round(per_step_bytes, 1), backend="tcp",
    )
