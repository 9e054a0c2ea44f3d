"""Shared fixtures.

Expensive artefacts (the snapshot sequence, fitted partitioners) are
session-scoped; tests must not mutate them. Every stochastic component
is seeded so the suite is deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.build import grid_graph
from repro.partition.config import PartitionOptions
from repro.sim.projectile import ImpactConfig
from repro.sim.sequence import simulate_impact


@pytest.fixture(scope="session")
def small_config():
    """A coarse, fast impact scene (~1.5k nodes)."""
    return ImpactConfig(n_steps=12, refine=0.6)


@pytest.fixture(scope="session")
def small_sequence(small_config):
    """12 snapshots of the coarse scene."""
    return simulate_impact(small_config)


@pytest.fixture(scope="session")
def mid_sequence():
    """30 snapshots at default resolution (~5k nodes) — used by the
    heavier integration tests."""
    return simulate_impact(ImpactConfig(n_steps=30))


@pytest.fixture()
def options():
    """Deterministic partitioner options."""
    return PartitionOptions(seed=42)


@pytest.fixture(scope="session")
def grid_16():
    return grid_graph(16, 16)


@pytest.fixture(scope="session")
def grid_3d():
    return grid_graph(8, 8, 6)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(
    scope="session",
    params=[
        "serial",
        "thread",
        "process",
        "chaos",
        "tcp://127.0.0.1:0?accept_timeout=30",
    ],
    ids=lambda spec: "tcp" if spec.startswith("tcp:") else spec,
)
def spmd_backend(request):
    """Each execution backend, session-scoped so the process backend's
    worker pool is spun up once for the whole run.  Tests using this
    fixture assert backend-independence: identical results and ledgers
    on every backend, where ``ctx.shared`` is read-only (a superstep
    that writes it raises on every row); the ``chaos`` variant
    exercises the fault-injection harness (a passthrough unless
    ``$REPRO_FAULT_PLAN`` schedules faults — the chaos CI job does,
    and results must STILL be identical).  The ``tcp`` variant runs
    the distributed coordinator against two locally spawned
    ``repro-agent`` processes over loopback sockets — the full
    ``repro.wire/1`` stack, same bit-identical results."""
    from repro.runtime.backends import build_backend

    backend = build_backend(request.param, workers=2)
    yield backend
    backend.close()
