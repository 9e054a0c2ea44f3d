"""Tunables for the multilevel partitioner.

Defaults mirror METIS's: 5% imbalance tolerance, coarsen until the
graph is small relative to k, a handful of initial-partition trials,
and a bounded number of refinement passes per level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.utils.rng import SeedLike


@dataclass
class PartitionOptions:
    """Options shared by all partitioner entry points.

    Attributes
    ----------
    ubfactor:
        Allowed load imbalance per constraint (``1 + epsilon``); every
        constraint of every partition must stay below
        ``ubfactor * (total/k)`` where feasible.
    coarsen_to:
        Stop coarsening when the graph has at most this many vertices.
        Bisection uses it as given; the direct k-way driver
        (:mod:`repro.partition.mlkway`) raises it to at least ``18 * k``.
    min_coarsen_ratio:
        Abort coarsening early when a level shrinks the vertex count by
        less than this factor (matching has stalled, e.g. on dense or
        star-like graphs).
    n_init_trials:
        Number of greedy-graph-growing seeds tried for the initial
        bisection; the best refined candidate wins.
    fm_passes:
        Maximum Fiduccia–Mattheyses passes per uncoarsening level.
    fm_neg_moves:
        Hill-climbing window: a pass aborts after this many consecutive
        moves without improving the best-seen cut.
    kway_passes:
        Maximum greedy k-way refinement passes.
    matching_rounds:
        Handshaking rounds of the vectorised heavy-edge matching.
    seed:
        Root random seed; all internal randomness derives from it.
    """

    ubfactor: float = 1.05
    coarsen_to: int = 120
    min_coarsen_ratio: float = 0.95
    n_init_trials: int = 6
    fm_passes: int = 6
    fm_neg_moves: int = 60
    kway_passes: int = 8
    matching_rounds: int = 4
    seed: SeedLike = 0

    def __post_init__(self) -> None:
        if self.ubfactor <= 1.0:
            raise ValueError(
                f"ubfactor must be > 1.0 (got {self.ubfactor}); use e.g. 1.05"
            )
        if self.coarsen_to < 2:
            raise ValueError("coarsen_to must be at least 2")
        if not 0.0 < self.min_coarsen_ratio < 1.0:
            raise ValueError("min_coarsen_ratio must be in (0, 1)")
        for name in ("n_init_trials", "fm_passes", "kway_passes", "matching_rounds"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
