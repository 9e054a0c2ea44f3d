"""Shared benchmark fixtures.

Benchmarks use ``ImpactConfig.paper_scale()`` (≈18k nodes, ≈16%
contact nodes — a ~9× linear reduction of the paper's 156k-node EPIC
mesh). The full 100-snapshot sequence is generated once per session.
Table-1-style benches run each algorithm once (rounds=1); micro-benches
(tree induction, splits, queries) use normal pytest-benchmark
statistics.
"""

from __future__ import annotations

import pytest

from repro.partition.config import PartitionOptions
from repro.sim.projectile import ImpactConfig
from repro.sim.sequence import simulate_impact

# partition counts for the headline comparison. The paper used 25 and
# 100 on a mesh ~9× larger; since partition interface effects scale
# with nodes-per-partition, our (8, 25) probes the same regimes the
# paper's (25, 100) did.
BENCH_KS = (8, 25)


def strong_options(seed: int = 0) -> PartitionOptions:
    """Partitioner options for evaluation runs: more initial trials and
    refinement passes than the test defaults (quality over speed, as a
    production METIS run would)."""
    return PartitionOptions(
        seed=seed,
        n_init_trials=12,
        fm_passes=10,
        kway_passes=16,
        fm_neg_moves=120,
    )


@pytest.fixture(scope="session")
def bench_sequence():
    """The 100-snapshot evaluation sequence (paper §5 analogue)."""
    return simulate_impact(ImpactConfig.paper_scale())


@pytest.fixture(scope="session")
def short_sequence():
    """25 default-resolution snapshots for the heavier per-step
    ablations (smaller mesh: ablations sweep many configurations)."""
    return simulate_impact(ImpactConfig(n_steps=25))


@pytest.fixture()
def options():
    return strong_options()


def record(benchmark, tracer=None, **info):
    """Attach metric values to the benchmark JSON/terminal output.

    Passing a recording :class:`repro.obs.Tracer` additionally flattens
    its span tree into ``extra_info["spans"]`` as
    ``{path: {"n_calls": ..., "total_ms": ...}}`` so phase timings ride
    along in the ``--benchmark-json`` artifact.
    """
    for key, value in info.items():
        benchmark.extra_info[key] = value
    if tracer is not None and getattr(tracer, "enabled", False):
        benchmark.extra_info["spans"] = {
            path: {
                "n_calls": span.n_calls,
                "total_ms": round(span.total_s * 1e3, 3),
                "self_ms": round(span.self_s * 1e3, 3),
            }
            for path, span in tracer.root.walk()
        }
