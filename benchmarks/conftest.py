"""Shared fixtures of the evaluation benches.

Each ``bench_*.py`` test regenerates one table of EXPERIMENTS.md: it
computes the rows once, prints them, and asserts the claim the table
supports. Run them all with
``python -m pytest benchmarks --ignore=benchmarks/spine -q``; the
timings live in the bench spine (``python -m benchmarks.spine run``).

Table 1 uses ``ImpactConfig.paper_scale()`` (≈18k nodes, ≈16% contact
nodes — a ~9× linear reduction of the paper's 156k-node EPIC mesh);
the ablations use 25 default-resolution snapshots.
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


#: evaluation-run partitioner options (quality over speed)
strong_options = PartitionOptions.strong


@pytest.fixture(scope="session")
def bench_sequence():
    """The 100-snapshot evaluation sequence (paper §5 analogue)."""
    return simulate_impact(ImpactConfig.paper_scale())


@pytest.fixture(scope="session")
def short_sequence():
    """25 default-resolution snapshots for the heavier per-step
    ablations (smaller mesh: ablations sweep many configurations)."""
    return simulate_impact(ImpactConfig(n_steps=25))


def show(capsys, *lines):
    """Print a table (and any note lines) past pytest's capture."""
    with capsys.disabled():
        print()
        print("\n".join(map(str, lines)))
