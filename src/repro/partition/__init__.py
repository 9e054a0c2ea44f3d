"""Multilevel (multi-constraint) graph partitioner.

A from-scratch reimplementation of the METIS algorithm family the paper
relies on:

* heavy-edge matching + contraction coarsening,
* greedy-graph-growing initial bisection,
* Fiduccia–Mattheyses boundary refinement with multi-constraint
  balance handling (bisection and k-way variants),
* k-way partitioning by recursive bisection with proportional targets
  (the default driver) or by a direct multilevel k-way V-cycle,
* greedy multi-constraint k-way refinement (also used standalone to
  rebalance the collapsed leaf graph ``G'`` in the paper's §4.2),
* fragment absorption (METIS's connected-components cleanup),
* an RCB-seeded geometry-aware variant (paper §6), and
* a minimal-movement diffusion repartitioner (§4.3 updates).
"""

from repro.partition.config import PartitionOptions
from repro.partition.fragments import absorb_fragments, count_fragments
from repro.partition.geometric import geometric_seed_partition
from repro.partition.kway import partition_kway
from repro.partition.mlkway import multilevel_kway
from repro.partition.multilevel import multilevel_bisection
from repro.partition.recursive import recursive_bisection
from repro.partition.refine_kway import greedy_kway_refine, rebalance_kway
from repro.partition.refine_kway_fm import kway_fm_refine
from repro.partition.repartition import diffusion_repartition

__all__ = [
    "PartitionOptions",
    "absorb_fragments",
    "count_fragments",
    "geometric_seed_partition",
    "partition_kway",
    "multilevel_kway",
    "multilevel_bisection",
    "recursive_bisection",
    "greedy_kway_refine",
    "rebalance_kway",
    "kway_fm_refine",
    "diffusion_repartition",
]
