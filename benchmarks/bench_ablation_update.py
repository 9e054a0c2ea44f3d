"""Ablation: the §4.3 update strategies over a running simulation.

Runs the sequence through ``evaluate_mcml_dt`` — the contact-step
driver Table 1 uses — under descriptor-only updates, per-step
multi-constraint repartitioning, and the hybrid scheme, recording mean
descriptor-tree size, worst balance drift, and total vertices
redistributed — the three quantities whose trade-off motivates the
paper's hybrid recommendation.
"""

from __future__ import annotations

import pytest

from repro.core.mcml_dt import MCMLDTParams
from repro.core.pipeline import SequenceResult, evaluate_mcml_dt
from repro.core.update import UpdateStrategy

from .conftest import record, strong_options

K = 8


def _summary(result: SequenceResult) -> dict:
    """Mean NTNodes, worst imbalance of either constraint, and the
    vertices redistributed over the run."""
    return {
        "mean_nt_nodes": result.mean("nt_nodes"),
        "max_imbalance": max(
            max(s.imbalance_fe, s.imbalance_search) for s in result.steps
        ),
        "total_moved": sum(s.n_moved for s in result.steps),
    }


def _run(sequence, strategy: UpdateStrategy, period: int = 10) -> dict:
    params = MCMLDTParams(options=strong_options())
    return _summary(evaluate_mcml_dt(
        sequence, K, params, strategy=strategy, period=period
    ))


@pytest.mark.parametrize(
    "strategy",
    [
        UpdateStrategy.DESCRIPTOR_ONLY,
        UpdateStrategy.REPARTITION,
        UpdateStrategy.HYBRID,
    ],
    ids=lambda s: s.value,
)
def test_update_strategy(benchmark, short_sequence, strategy):
    result = benchmark.pedantic(
        lambda: _run(short_sequence, strategy, period=8),
        rounds=1, iterations=1,
    )
    record(benchmark, **result)


def test_update_tradeoff_shape(benchmark, short_sequence):
    """Descriptor-only must move nothing; repartitioning must bound the
    imbalance drift at least as tightly; hybrid must move less than
    per-step repartitioning."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    fixed = _run(short_sequence, UpdateStrategy.DESCRIPTOR_ONLY)
    repart = _run(short_sequence, UpdateStrategy.REPARTITION)
    hybrid = _run(short_sequence, UpdateStrategy.HYBRID, period=8)
    record(
        benchmark,
        fixed_imb=fixed["max_imbalance"],
        repart_imb=repart["max_imbalance"],
        hybrid_imb=hybrid["max_imbalance"],
        repart_moved=repart["total_moved"],
        hybrid_moved=hybrid["total_moved"],
    )
    assert fixed["total_moved"] == 0
    assert repart["max_imbalance"] <= fixed["max_imbalance"] + 0.05
    assert hybrid["total_moved"] <= repart["total_moved"]
