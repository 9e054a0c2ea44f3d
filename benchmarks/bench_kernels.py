"""Pure vs compiled execution tier for every certified kernel.

Each kernel is timed through its real dispatcher (the callable the
library actually invokes) under ``REPRO_KERNELS=pure`` and
``REPRO_KERNELS=compiled`` on a representative workload, warm-cache:
the compiled tier is warmed first so jit compilation is paid (and
recorded) outside the timed region.  Results land in
``BENCH_kernels.json`` via ``benchmarks/conftest.py`` (CI artifact).

Correctness rides along: every timed pair of runs must be bit-identical
(the conformance suite's invariant, re-asserted on the bench workload
so the report can never show a speedup over a wrong answer).

The smoke-level regression guard: when the compiled tier is genuinely
active (numba importable, no fallback), the contact-search kernels must
not be slower compiled than pure on warm repeat runs.  Where numba is
absent the tier falls back per kernel, timings converge by
construction, and each result's ``compiled_active`` /
``fallback_reason`` documents the cap instead of failing the bench.
"""

from __future__ import annotations

import time
import warnings

import numpy as np
import pytest

from repro.kernels import declared_kernels, kernel_dispatchers
from repro.runtime import compiled as rc

from .conftest import register_result

ROUNDS = 5

#: kernels on the contact-search hot path (ROADMAP item 1's
#: `run/global-search/search` span) — the regression-guarded set
CONTACT_SEARCH_KERNELS = {
    "repro.geometry.boxsearch.box_candidate_pairs",
    "repro.core.contact_search.row_majority",
}


def _bbox_workload(rng):
    boxes_a = rng.normal(size=(400, 2, 3))
    boxes_a.sort(axis=1)
    boxes_b = rng.normal(size=(400, 2, 3))
    boxes_b.sort(axis=1)
    return (boxes_a, boxes_b), {"pad": 0.1}


def _boxsearch_workload(rng):
    boxes = rng.normal(size=(5000, 2, 3))
    boxes.sort(axis=1)
    points = rng.normal(size=(20000, 3))
    box_index = rng.integers(0, 5000, 200000).astype(np.int64)
    point_index = rng.integers(0, 20000, 200000).astype(np.int64)
    return (boxes, points, box_index, point_index), {}


def _row_majority_workload(rng):
    return (rng.integers(0, 16, (20000, 8)).astype(np.int64),), {}


def _split_curve_workload(rng):
    coords = np.round(rng.normal(size=100000), 3)  # tie-heavy
    labels = rng.integers(0, 8, 100000).astype(np.int64)
    return (coords, labels), {}


WORKLOADS = {
    "repro.geometry.bbox.bboxes_intersect_matrix": _bbox_workload,
    "repro.geometry.boxsearch.box_candidate_pairs": _boxsearch_workload,
    "repro.core.contact_search.row_majority": _row_majority_workload,
    "repro.dtree.splitter.split_index_curve": _split_curve_workload,
}


def _as_tuple(out):
    return out if isinstance(out, tuple) else (out,)


def _best_of(fn, args, kwargs, rounds=ROUNDS):
    best = None
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


def test_workloads_cover_every_kernel():
    assert set(WORKLOADS) == set(declared_kernels())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_kernel_pure_vs_compiled(name):
    args, kwargs = WORKLOADS[name](np.random.default_rng(7))
    dispatcher = kernel_dispatchers()[name]
    try:
        rc.set_kernel_tier("pure")
        pure_best, pure_out = _best_of(dispatcher, args, kwargs)

        rc.set_kernel_tier("compiled")
        before = rc.stats_snapshot()
        with warnings.catch_warnings():
            # numba-absent fallback warns once per kernel; the bench
            # records the fact instead of printing it
            warnings.simplefilter("ignore", RuntimeWarning)
            dispatcher(*args, **kwargs)  # warm: compile off-clock
            compiled_best, compiled_out = _best_of(
                dispatcher, args, kwargs
            )
        delta = rc.stats_delta(before)
    finally:
        rc.set_kernel_tier(None)

    compiled_active = (
        delta["kernel_calls_compiled"] > 0
        and name not in rc.fallback_reasons()
    )
    for w, g in zip(_as_tuple(pure_out), _as_tuple(compiled_out)):
        assert w.dtype == g.dtype and w.shape == g.shape
        assert np.array_equal(w, g)

    speedup = round(pure_best / compiled_best, 3) if compiled_best else None
    register_result(
        "kernels",
        name,
        pure_best_s=round(pure_best, 6),
        compiled_best_s=round(compiled_best, 6),
        speedup_compiled_vs_pure=speedup,
        compiled_active=compiled_active,
        compile_seconds=round(delta["kernel_compile_seconds"], 6),
        fallback_reason=rc.fallback_reasons().get(name),
        rounds=ROUNDS,
    )

    if compiled_active and name in CONTACT_SEARCH_KERNELS:
        # the regression guard: warm compiled contact-search must not
        # lose to pure — otherwise the tier is a pessimisation
        assert compiled_best <= pure_best, (
            f"{name}: compiled warm path ({compiled_best:.6f}s) is "
            f"slower than pure ({pure_best:.6f}s)"
        )
