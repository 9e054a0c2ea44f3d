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


#: the ``spmd_backend`` rows, by test id: each backend at two workers,
#: plus ``chaos`` — a process pool that kills one worker at the run's
#: third superstep and slows a rank at the sixth
SPMD_BACKENDS = {
    "serial": "serial",
    "thread": "thread:2",
    "process": "process:2",
    "chaos": "process://?workers=2&faults=kill@2.1,slow@5.0:0.02",
    "tcp": "tcp://127.0.0.1:0:2?accept_timeout=30",
}


@pytest.fixture(
    scope="session",
    params=list(SPMD_BACKENDS.values()),
    ids=list(SPMD_BACKENDS),
)
def spmd_backend(request):
    """Each execution backend, session-scoped so a pool is spun up once
    for the whole run.  Tests using this fixture assert
    backend-independence: identical results and ledgers on every
    backend, where ``ctx.shared`` is read-only (a superstep that writes
    it raises on every row).  The ``chaos`` row is a process pool built
    with a ``faults=`` plan: its one worker kill goes through whichever
    test reaches the run's third superstep, and results must STILL be
    identical.  The ``tcp`` row runs the distributed coordinator
    against two locally spawned ``repro-agent`` processes over loopback
    sockets — the full ``repro.wire/1`` stack, same bit-identical
    results."""
    from repro.runtime.backends import build_backend

    backend = build_backend(request.param)
    yield backend
    backend.close()
