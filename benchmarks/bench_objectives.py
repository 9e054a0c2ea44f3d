"""Pareto sweep of the two communication objectives (§2 / [31]).

The §4.2 contact-edge weight 5 is one point on a trade-off curve
between FE-phase cut (objective 0) and search-phase cut (objective 1).
Sweeping the scalarisation coefficient traces that curve; the sweep
shows the monotone exchange the multi-objective formulation predicts
and locates the paper's choice on it.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.report import format_table
from repro.partition.objectives import (
    build_contact_objectives,
    multi_objective_partition,
)

from .conftest import show, strong_options

K = 8
COEFFS = (0.0, 4.0, 19.0)
SEEDS = (0, 1, 2)  # the partitioner is a heuristic; average out noise


def test_pareto_sweep(short_sequence, capsys):
    """Seed-averaged endpoints of the trade-off: the largest contact
    coefficient buys the smallest contact cut, the smallest coefficient
    the smallest FE cut."""
    obj = build_contact_objectives(short_sequence[0])
    fe_cuts, contact_cuts = {}, {}
    for c in COEFFS:
        fe_cuts[c], contact_cuts[c] = np.mean(
            [multi_objective_partition(
                obj, K, [1.0, c], strong_options(seed=seed))[1]
             for seed in SEEDS],
            axis=0,
        )
    show(capsys, format_table(
        f"§2 Pareto sweep — k = {K}, mean over seeds {SEEDS}",
        ["FE cut", "contact cut"],
        {f"c = {c:g}": [fe_cuts[c], contact_cuts[c]] for c in COEFFS},
    ))
    cmax, cmin = max(COEFFS), min(COEFFS)
    assert contact_cuts[cmax] <= contact_cuts[cmin] * 1.05
    assert fe_cuts[cmin] <= fe_cuts[cmax] * 1.05
