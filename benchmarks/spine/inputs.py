"""Seed → inputs, and the environment stamp.

The program under test only ever sees what this module generates: a
:class:`~repro.sim.sequence.MeshSequence`, partitioner options and
service request documents.

Why the seed moves only the projectile speed: a fit's wall time on
this partitioner is chaotic in its input — across six
``PartitionOptions.seed`` / obliquity draws a k=8 fit at paper scale
took 3.2–14.4 s — so a seed that perturbs snapshot 0 or the options
makes every fit metric spread several times wider than any usable
regression bound.  ``v0`` leaves snapshot 0 (t = 0) bit-identical,
which keeps the fits repeatable, while the 99 later snapshots (erosion
timing, contact onset, repartition inputs) do change with the seed.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import random
import subprocess
from typing import Any, Dict, List

from repro.core.mcml_dt import MCMLDTParams
from repro.partition.config import PartitionOptions
from repro.sim.projectile import ImpactConfig
from repro.sim.sequence import MeshSequence, simulate_impact

from benchmarks.spine.results import SPINE_DIR

#: contact capture distance that makes the search real (≈21k candidate
#: pairs at paper scale, first at step 8); the default 0 finds none
PAD = 0.1
#: relative half-width of the seed's projectile-speed draw
V0_JITTER = 0.04


@dataclasses.dataclass(frozen=True)
class Scale:
    """How big a run is; ``quick`` keeps every code path and name."""

    name: str
    config: ImpactConfig
    n_snapshots: int
    #: fixed pass count (quick) or None: repeat until ``--seconds``
    passes: "int | None"
    cached_repeats: int
    probe_reps: int


PAPER = Scale("paper", ImpactConfig.paper_scale(), 100, None, 300, 3)
QUICK = Scale("quick", ImpactConfig(), 20, 2, 40, 1)


def impact_config(seed: int, scale: Scale) -> ImpactConfig:
    """Seed 0 is exactly the scale's scene; others jitter ``v0``."""
    if seed == 0:
        return scale.config
    jitter = random.Random(seed).uniform(-V0_JITTER, V0_JITTER)
    return dataclasses.replace(
        scale.config, v0=scale.config.v0 * (1.0 + jitter)
    )


def build_sequence(seed: int, scale: Scale) -> MeshSequence:
    """The snapshot sequence every paper workload and probe runs on."""
    return simulate_impact(impact_config(seed, scale), scale.n_snapshots)


def partition_options() -> PartitionOptions:
    return PartitionOptions(seed=0)


def mcml_params() -> MCMLDTParams:
    return MCMLDTParams(pad=PAD, options=partition_options())


def eval_indices(n: int) -> List[int]:
    """Snapshots 0,10,…,90 at paper scale (every tenth of the run)."""
    return list(range(0, n, max(1, n // 10)))


def check_indices(n: int) -> List[int]:
    """Snapshots 10/50/90 at paper scale: before, during, after impact."""
    return [n // 10, n // 2, (9 * n) // 10]


# ----------------------------------------------------------------------
# service requests
# ----------------------------------------------------------------------

SERVICE_SOURCE = {"kind": "impact", "n_steps": 20, "snapshot": 10}
#: (refine, k, partitioner) of the four distinct cold partition jobs
COLD_JOBS = (
    (1.0, 8, "mcml-dt"),
    (0.9, 8, "mcml-dt"),
    (1.0, 16, "mcml-dt"),
    (1.0, 8, "ml-rcb"),
)


def service_source(refine: float) -> Dict[str, Any]:
    return dict(SERVICE_SOURCE, refine=refine)


def cold_job_order(seed: int) -> List[int]:
    """The first job (the one the cache-hit repeats target) stays
    first; the seed permutes the other three."""
    rest = [1, 2, 3]
    if seed:
        random.Random(seed).shuffle(rest)
    return [0] + rest


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------


def environment_stamp() -> Dict[str, Any]:
    import numpy
    import scipy

    from repro.runtime.compiled import kernel_tier, numba_available

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=SPINE_DIR, text=True,
            capture_output=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # the driver's checkout is not a git repository
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "numba_available": numba_available(),
        "kernel_tier": kernel_tier(),
        "backend": "serial",
    }
