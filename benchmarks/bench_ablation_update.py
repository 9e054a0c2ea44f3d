"""Ablation: the §4.3 update strategies over a running simulation.

Runs the sequence through ``evaluate_mcml_dt`` — the contact-step
driver Table 1 uses — under descriptor-only updates, per-step
multi-constraint repartitioning, and the hybrid scheme, and prints the
mean descriptor-tree size, worst balance drift, and total vertices
redistributed — the three quantities whose trade-off motivates the
paper's hybrid recommendation.
"""

from __future__ import annotations

from repro.core.mcml_dt import MCMLDTParams
from repro.core.pipeline import evaluate_mcml_dt
from repro.core.update import UpdateStrategy
from repro.metrics.report import format_table

from .conftest import show, strong_options

K = 8
PERIOD = 8  # the hybrid's; the other two strategies ignore it


def test_update_tradeoff(short_sequence, capsys):
    """Descriptor-only must move nothing; repartitioning must bound the
    imbalance drift at least as tightly; hybrid must move less than
    per-step repartitioning."""
    rows = {}
    for strategy in UpdateStrategy:
        result = evaluate_mcml_dt(
            short_sequence, K, MCMLDTParams(options=strong_options()),
            strategy=strategy, period=PERIOD,
        )
        rows[strategy.value] = [
            result.mean("nt_nodes"),
            max(max(s.imbalance_fe, s.imbalance_search)
                for s in result.steps),
            sum(s.n_moved for s in result.steps),
        ]
    show(capsys, format_table(
        f"§4.3 update strategies — k = {K}, hybrid period {PERIOD}",
        ["mean NTNodes", "worst imbalance", "vertices moved"],
        {name: [nt, f"{imb:.3f}", moved]
         for name, (nt, imb, moved) in rows.items()},
    ))
    fixed, repart, hybrid = rows.values()  # UpdateStrategy's order
    assert fixed[2] == 0
    assert repart[1] <= fixed[1] + 0.05
    assert hybrid[2] <= repart[2]
